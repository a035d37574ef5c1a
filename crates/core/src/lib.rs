//! # mdl-core
//!
//! Umbrella crate of the `mobile-dl` workspace — a from-scratch Rust
//! reproduction of *Deep Learning Towards Mobile Applications* (Wang et
//! al., ICDCS 2018). It re-exports every subsystem and adds the
//! [`pipeline`] module, which chains them into the lifecycle the paper
//! narrates: privacy-preserving federated training on mobile data, model
//! compression, and efficient (optionally private) inference deployment.
//!
//! | Paper section | Crate |
//! |---|---|
//! | §II-A distributed selective SGD | [`federated`](mdl_federated) |
//! | §II-B federated averaging + scheduling | [`federated`](mdl_federated) |
//! | §II-C DP training, moments accountant | [`privacy`](mdl_privacy) |
//! | §III placement economics | [`mobile`](mdl_mobile) |
//! | §III-A private split inference (ARDEN) | [`split`](mdl_split) |
//! | §III-B compression & acceleration | [`compress`](mdl_compress) |
//! | §IV-A DeepMood | [`deepmood`](mdl_deepmood) |
//! | §IV-B DEEPSERVICE | [`deepservice`](mdl_deepservice) |
//! | §III serving tier (batching, hot swap, routing) | [`serve`](mdl_serve) |
//! | faulty-network transport fabric | [`net`](mdl_net) |
//! | population-scale event-driven simulation | [`sim`](mdl_sim) |
//! | substrates | [`tensor`](mdl_tensor), [`nn`](mdl_nn), [`data`](mdl_data), [`baselines`](mdl_baselines) |
//!
//! # Examples
//!
//! ```
//! use mdl_core::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let data = mdl_core::data::synthetic::gaussian_blobs(100, 2, 0.3, &mut rng);
//! let (train, test) = data.split(0.8, &mut rng);
//! let mut model = LogisticRegression::new();
//! let eval = fit_evaluate(&mut model, &train, &test, &mut rng);
//! assert!(eval.accuracy > 0.9);
//! ```

#![warn(missing_docs)]

pub mod pipeline;

pub use mdl_baselines as baselines;
pub use mdl_compress as compress;
pub use mdl_data as data;
pub use mdl_deepmood as deepmood;
pub use mdl_deepservice as deepservice;
pub use mdl_federated as federated;
pub use mdl_fleet as fleet;
pub use mdl_mobile as mobile;
pub use mdl_net as net;
pub use mdl_nn as nn;
pub use mdl_obs as obs;
pub use mdl_privacy as privacy;
pub use mdl_serve as serve;
pub use mdl_sim as sim;
pub use mdl_split as split;
pub use mdl_tensor as tensor;

pub use pipeline::{
    run_pipeline, PipelineConfig, PipelineReport, PopulationRehearsal, PopulationSummary,
    RolloutRehearsal, RolloutSummary, ServingSummary, TransportSummary,
};

/// One-stop imports for examples and experiments.
pub mod prelude {
    pub use crate::pipeline::{
        run_pipeline, PipelineConfig, PipelineReport, PopulationRehearsal, PopulationSummary,
        RolloutRehearsal, RolloutSummary, ServingSummary, TransportSummary,
    };
    pub use mdl_baselines::{
        evaluate, fit_evaluate, Classifier, DecisionTree, Evaluation, GradientBoost, LinearSvm,
        LogisticRegression, MajorityClass, RandomForest,
    };
    pub use mdl_compress::{
        deep_compress, distill, factorize_dense, BlockCirculant, CompressedModel,
        DeepCompressionConfig, DistillConfig, HuffmanEncoded, QuantizedMatrix,
    };
    pub use mdl_data::biaffect::{BiAffectConfig, BiAffectDataset};
    pub use mdl_data::keystroke::{KeystrokeConfig, KeystrokeDataset};
    pub use mdl_data::{partition_dataset, ConfusionMatrix, Dataset, Partition};
    pub use mdl_deepmood::{DeepMood, DeepMoodConfig, FusionKind};
    pub use mdl_deepservice::{pairwise_identification, table_one, train_deepservice};
    pub use mdl_federated::{
        run_federated, run_federated_over, run_population_fedavg, run_selective_sgd,
        run_selective_sgd_over, AvailabilityModel, FedConfig, MlpSpec, PopulationTask,
        SelectiveConfig,
    };
    pub use mdl_fleet::{
        ab_compare, canary_stages, distribute, run_rollout, snapshot_diff, AbReport, ChunkConfig,
        DistributionReport, GatePolicy, RolloutConfig, RolloutReport,
    };
    pub use mdl_mobile::{Battery, DeviceProfile, NetworkProfile, Placement, Scenario};
    pub use mdl_net::{
        Fabric, FabricConfig, FaultPlan, LinkConfig, LinkState, NetError, RetryPolicy,
        TransportMetrics,
    };
    pub use mdl_nn::{
        fit_classifier, Activation, Adam, Dense, Gru, Layer, ParamVector, Plan, PlanModel,
        PlanOptions, QuantizedModel, Sequential, Sgd, TrainConfig,
    };
    pub use mdl_obs::{Buckets, Clock, ClockKind, MetricsRegistry, Obs, ObsSnapshot};
    pub use mdl_privacy::{
        compute_epsilon, run_dp_fedavg, train_dp_sgd, DpFedConfig, DpSgdConfig, GaussianMechanism,
        MomentsAccountant,
    };
    pub use mdl_serve::{
        request_stream, run_load, ClientProfile, DeviceClass, FleetConfig, FleetEngine,
        InferenceServer, LoadGenConfig, LoadMode, ModelVariant, NetworkClass, Route, ServeConfig,
        SloClass,
    };
    pub use mdl_sim::{
        run_population, sample_cohort, ClientTrainer, CohortSpec, Population, PopulationReport,
        PopulationSpec, SimConfig, SimError, Topology,
    };
    pub use mdl_split::{compare_deployments, Arden, ArdenConfig};
    pub use mdl_tensor::{Init, Int8Matrix, Matrix};
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}
