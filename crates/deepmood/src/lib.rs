//! # mdl-deepmood
//!
//! DeepMood (§IV-A of the paper, Fig. 4): mood-disturbance inference from
//! mobile typing dynamics. Each metadata view — alphanumeric keypress
//! timing, one-hot special keys, accelerometer stream — is encoded by its
//! own GRU (paper Eq. 1); the final hidden states are late-fused by one of
//! three output layers:
//!
//! - fully connected (Eq. 2),
//! - factorization machine (Eq. 3),
//! - multi-view machine (Eq. 4).
//!
//! [`evaluate`] drives the model over the synthetic BiAffect cohort from
//! `mdl-data`, including the per-participant accuracy-vs-session-count
//! analysis of the paper's Fig. 5.

#![warn(missing_docs)]

pub mod evaluate;
pub mod fusion;
pub mod model;
pub mod normalize;

pub use evaluate::{
    as_training_pairs, biaffect_view_dims, borrow_pairs, normalized_pairs,
    per_participant_analysis, train_and_evaluate, MoodEvaluation, ParticipantPoint,
};
pub use fusion::{FactorizationMachineFusion, FullyConnectedFusion, MultiViewMachineFusion};
pub use model::{DeepMood, DeepMoodConfig, EncoderKind, FusionKind};
pub use normalize::ViewNormalizer;
