//! Versioned model registry with atomic hot swap.
//!
//! Serving keeps exactly one *current* model behind an `Arc`; workers grab
//! a snapshot per batch, so a swap never interrupts an in-flight batch —
//! it finishes on the version it started with while new batches pick up
//! the replacement. This is the paper's §III "update the model without
//! shipping a new app" concern, applied to the serving tier.

use mdl_compress::CompressedModel;
use mdl_nn::saved::{load_model, LoadModelError};
use mdl_nn::{Layer, LayerInfo, QuantizedModel, Sequential};
use mdl_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// The executable form a registry version holds: an f32 network or its
/// int8 quantization. Both are read-only at inference time, so a
/// registry can hot-swap freely between precisions of the same model.
pub enum ModelVariant {
    /// Full-precision network. Like the int8 one it is evaluated through
    /// [`mdl_nn::Plan`] only: cached by the workers, compiled per call by
    /// `forward_eval`.
    F32(Sequential),
    /// Int8 network: every matrix product runs in the int8 SIMD kernel, no
    /// f32 weight round-trip.
    Int8(QuantizedModel),
}

impl From<Sequential> for ModelVariant {
    fn from(model: Sequential) -> Self {
        Self::F32(model)
    }
}

impl From<QuantizedModel> for ModelVariant {
    fn from(model: QuantizedModel) -> Self {
        Self::Int8(model)
    }
}

impl std::fmt::Debug for ModelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelVariant")
            .field("precision", &self.precision())
            .field("layers", &self.layer_infos().len())
            .finish()
    }
}

impl ModelVariant {
    /// Read-only forward pass; softmax-ready scores for either precision.
    pub fn forward_eval(&self, x: &Matrix) -> Matrix {
        match self {
            Self::F32(m) => m.forward_eval(x),
            Self::Int8(m) => m.forward_eval(x),
        }
    }

    /// Per-layer structural descriptions (identical kinds/dims/macs for
    /// both precisions of the same architecture).
    pub fn layer_infos(&self) -> Vec<LayerInfo> {
        match self {
            Self::F32(m) => m.layer_infos(),
            Self::Int8(m) => m.layer_infos(),
        }
    }

    /// Input width expected by the first layer (0 for an empty model).
    pub fn input_dim(&self) -> usize {
        self.layer_infos().first().map(|l| l.in_dim).unwrap_or(0)
    }

    /// The f32 network, when this is the f32 variant. Split placement and
    /// mid-network batch resume are f32-only — the quantized path has no
    /// layer-boundary f32 representation to ship.
    pub fn as_f32(&self) -> Option<&Sequential> {
        match self {
            Self::F32(m) => Some(m),
            Self::Int8(_) => None,
        }
    }

    /// `"f32"` or `"int8"` — the label experiments report.
    pub fn precision(&self) -> &'static str {
        match self {
            Self::F32(_) => "f32",
            Self::Int8(_) => "int8",
        }
    }

    /// Bytes per weight as the placement cost model prices transfers:
    /// 4.0 for f32, 1.0 for int8.
    pub fn bytes_per_weight(&self) -> f64 {
        match self {
            Self::F32(_) => 4.0,
            Self::Int8(_) => 1.0,
        }
    }
}

/// One immutable, shareable model version.
pub struct VersionedModel {
    /// Monotonically increasing version, starting at 1.
    pub version: u64,
    /// The frozen network, in either precision; inference goes through
    /// the read-only eval path of the [`ModelVariant`].
    pub model: ModelVariant,
}

/// Holds the current [`VersionedModel`] and swaps it atomically.
///
/// For staged rollouts the registry can additionally **pin** a known-good
/// version: [`ModelRegistry::pin_current`] remembers the current snapshot,
/// and [`ModelRegistry::rollback_to_pin`] restores it atomically when a
/// health gate fails. A rollback re-serves the pinned version under its
/// *original* version number — version numbers are monotone across swaps
/// but a rollback deliberately resolves back to the pinned one.
pub struct ModelRegistry {
    current: RwLock<Arc<VersionedModel>>,
    pinned: RwLock<Option<Arc<VersionedModel>>>,
    /// Highest version ever issued; swaps allocate from here so a version
    /// number is never reused even after a rollback.
    high_water: AtomicU64,
    swaps: AtomicU64,
    reverts: AtomicU64,
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("version", &self.current().version)
            .field("swaps", &self.swap_count())
            .finish()
    }
}

impl ModelRegistry {
    /// Registers an initial model (either precision) as version 1.
    pub fn new(model: impl Into<ModelVariant>) -> Self {
        Self {
            current: RwLock::new(Arc::new(VersionedModel { version: 1, model: model.into() })),
            pinned: RwLock::new(None),
            high_water: AtomicU64::new(1),
            swaps: AtomicU64::new(0),
            reverts: AtomicU64::new(0),
        }
    }

    /// Decodes a saved artifact (see [`mdl_nn::saved`]) as version 1.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`LoadModelError`] for malformed bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LoadModelError> {
        Ok(Self::new(load_model(bytes)?))
    }

    /// Snapshot of the current version (cheap: one `Arc` clone).
    pub fn current(&self) -> Arc<VersionedModel> {
        Arc::clone(&self.current.read().expect("registry lock"))
    }

    /// Current version number.
    pub fn version(&self) -> u64 {
        self.current().version
    }

    /// Number of completed swaps.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Atomically replaces the model (either precision), returning the
    /// new version number. Readers holding the previous snapshot are
    /// unaffected — hot-swapping f32 ↔ int8 versions of the same model
    /// is an ordinary swap.
    pub fn swap(&self, model: impl Into<ModelVariant>) -> u64 {
        let mut slot = self.current.write().expect("registry lock");
        let version = self.high_water.fetch_add(1, Ordering::Relaxed) + 1;
        *slot = Arc::new(VersionedModel { version, model: model.into() });
        self.swaps.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// Decodes and swaps in a saved artifact. The current model is kept
    /// untouched if the bytes fail validation — a corrupt upload can never
    /// take down serving.
    ///
    /// # Errors
    ///
    /// Returns the decoder's [`LoadModelError`] for malformed bytes.
    pub fn swap_bytes(&self, bytes: &[u8]) -> Result<u64, LoadModelError> {
        let model = load_model(bytes)?;
        Ok(self.swap(model))
    }

    /// Lowers a `mdl_compress::quantize` artifact straight onto the int8
    /// execution path ([`CompressedModel::to_quantized`] — no f32 weight
    /// round-trip) and swaps it in, returning the new version number.
    pub fn swap_compressed(&self, artifact: &CompressedModel) -> u64 {
        self.swap(artifact.to_quantized())
    }

    /// Pins the current version as the rollback target, returning its
    /// version number. Replaces any earlier pin.
    pub fn pin_current(&self) -> u64 {
        let snapshot = self.current();
        let version = snapshot.version;
        *self.pinned.write().expect("registry pin lock") = Some(snapshot);
        version
    }

    /// Version number of the pinned rollback target, if any.
    pub fn pinned_version(&self) -> Option<u64> {
        self.pinned.read().expect("registry pin lock").as_ref().map(|m| m.version)
    }

    /// Atomically restores the pinned version, returning its version
    /// number, or `None` when nothing is pinned. The pin stays in place so
    /// repeated gate failures keep resolving to the same known-good model.
    /// Counted under [`ModelRegistry::revert_count`], not as a swap.
    pub fn rollback_to_pin(&self) -> Option<u64> {
        let pinned = self.pinned.read().expect("registry pin lock").clone()?;
        let version = pinned.version;
        *self.current.write().expect("registry lock") = pinned;
        self.reverts.fetch_add(1, Ordering::Relaxed);
        Some(version)
    }

    /// Number of completed rollbacks to a pinned version.
    pub fn revert_count(&self) -> u64 {
        self.reverts.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_nn::{save_model, Activation, Dense, Layer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Sequential::new();
        n.push(Dense::new(4, 3, Activation::Identity, &mut rng));
        n
    }

    #[test]
    fn swap_bumps_version_and_keeps_old_snapshots_alive() {
        let reg = ModelRegistry::new(net(1));
        let before = reg.current();
        assert_eq!(before.version, 1);
        assert_eq!(reg.swap(net(2)), 2);
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.swap_count(), 1);
        // the old snapshot still works after the swap
        let x = mdl_tensor::Matrix::ones(1, 4);
        assert_eq!(before.model.forward_eval(&x).cols(), 3);
    }

    #[test]
    fn bad_bytes_leave_current_model_in_place() {
        let reg = ModelRegistry::new(net(3));
        assert!(reg.swap_bytes(b"not a model").is_err());
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.swap_count(), 0);
    }

    #[test]
    fn pin_and_rollback_restore_the_exact_snapshot() {
        let reg = ModelRegistry::new(net(5));
        assert_eq!(reg.rollback_to_pin(), None, "nothing pinned yet");
        assert_eq!(reg.pin_current(), 1);
        assert_eq!(reg.pinned_version(), Some(1));
        let pinned = reg.current();
        assert_eq!(reg.swap(net(6)), 2);
        assert_eq!(reg.rollback_to_pin(), Some(1));
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.revert_count(), 1);
        assert!(Arc::ptr_eq(&pinned, &reg.current()), "same snapshot, not a rebuild");
        // the pin survives, so a repeat failure resolves identically,
        // and version numbers are never reused after a rollback
        assert_eq!(reg.swap(net(7)), 3);
        assert_eq!(reg.rollback_to_pin(), Some(1));
        assert_eq!(reg.revert_count(), 2);
    }

    #[test]
    fn hot_swaps_between_f32_and_int8_of_the_same_model() {
        let f32_model = net(8);
        let quantized = QuantizedModel::from_model(&f32_model).expect("dense quantizes");
        let reg = ModelRegistry::new(f32_model);
        assert_eq!(reg.current().model.precision(), "f32");
        let x = mdl_tensor::Matrix::ones(1, 4);
        let f32_out = reg.current().model.forward_eval(&x);

        assert_eq!(reg.swap(quantized), 2);
        let snap = reg.current();
        assert_eq!(snap.model.precision(), "int8");
        assert_eq!(snap.model.bytes_per_weight(), 1.0);
        assert_eq!(snap.model.input_dim(), 4);
        let int8_out = snap.model.forward_eval(&x);
        assert_eq!(int8_out.shape(), f32_out.shape());
        for (a, b) in f32_out.as_slice().iter().zip(int8_out.as_slice()) {
            assert!((a - b).abs() < 0.1, "precisions diverged: {a} vs {b}");
        }
        // and back: the variant swap is an ordinary registry swap
        assert_eq!(reg.swap(net(8)), 3);
        assert_eq!(reg.current().model.precision(), "f32");
    }

    #[test]
    fn round_trips_saved_artifacts() {
        let mut original = net(4);
        let bytes = save_model(&mut original).expect("dense net saves");
        let reg = ModelRegistry::from_bytes(&bytes).expect("valid artifact");
        let x = mdl_tensor::Matrix::ones(2, 4);
        assert!(reg.current().model.forward_eval(&x).approx_eq(&original.forward_eval(&x), 0.0));
    }
}
