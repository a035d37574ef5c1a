//! A compact on-disk / over-the-air model format.
//!
//! §III of the paper worries about the size of the app bundled with its
//! DNN and about updating models without shipping a new app. This module
//! gives the workspace a versioned binary format for [`Sequential`]
//! networks built from the standard layer set: a small header describing
//! the architecture followed by the flat fp32 parameter vector.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! magic "MDLM" | version u8 | layer_count u16
//! per layer: tag u8 | in_dim u32 | out_dim u32 | extra u32
//! param_count u32 | params f32 × param_count
//! ```

use crate::activation::Activation;
use crate::dense::Dense;
use crate::layer::{Layer, ParamVector};
use crate::recurrent::{BiGru, CellKind, Gru};
use crate::sequential::Sequential;
use mdl_tensor::wire::{Reader, WireError};
use mdl_tensor::Init;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAGIC: &[u8; 4] = b"MDLM";
const VERSION: u8 = 1;
/// `tag u8 | in_dim u32 | out_dim u32 | extra u32`
const LAYER_ENTRY_BYTES: usize = 13;

/// Errors produced when decoding a saved model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadModelError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u8),
    /// The buffer ended before the declared content.
    Truncated,
    /// An unknown layer tag was encountered.
    UnknownLayer(u8),
    /// The parameter count does not match the declared architecture.
    ParamMismatch {
        /// Parameters the architecture requires.
        expected: usize,
        /// Parameters present in the buffer.
        found: usize,
    },
    /// A layer's input width is not the previous layer's output width.
    WidthMismatch {
        /// Index of the layer whose input does not fit.
        layer: usize,
        /// Output width of the layer before it.
        expected: usize,
        /// Input width the entry declares.
        found: usize,
    },
    /// A dense entry carries an activation tag the format does not define.
    UnknownActivation(u32),
}

impl std::fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadModelError::BadMagic => write!(f, "buffer is not a saved model"),
            LoadModelError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            LoadModelError::Truncated => write!(f, "buffer ended unexpectedly"),
            LoadModelError::UnknownLayer(t) => write!(f, "unknown layer tag {t}"),
            LoadModelError::ParamMismatch { expected, found } => {
                write!(f, "expected {expected} parameters, found {found}")
            }
            LoadModelError::WidthMismatch { layer, expected, found } => {
                write!(f, "layer {layer} takes {found} inputs, the layer before emits {expected}")
            }
            LoadModelError::UnknownActivation(t) => write!(f, "unknown activation tag {t}"),
        }
    }
}

impl std::error::Error for LoadModelError {}

fn activation_tag(a: Activation) -> u32 {
    match a {
        Activation::Identity => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
        Activation::LeakyRelu(_) => 4,
    }
}

fn activation_from_tag(t: u32) -> Result<Activation, LoadModelError> {
    match t {
        0 => Ok(Activation::Identity),
        1 => Ok(Activation::Relu),
        2 => Ok(Activation::Sigmoid),
        3 => Ok(Activation::Tanh),
        4 => Ok(Activation::LeakyRelu(0.01)),
        _ => Err(LoadModelError::UnknownActivation(t)),
    }
}

/// Serialises a network built from `Dense`, `Gru` and `BiGru` layers.
///
/// Returns `None` if the network contains a layer kind the format cannot
/// describe (e.g. dropout, which is inference-irrelevant anyway).
///
/// # Examples
///
/// ```
/// use mdl_nn::{save_model, load_model, Sequential, Dense, Activation};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 2, Activation::Relu, &mut rng));
/// let bytes = save_model(&mut net).expect("dense nets are saveable");
/// let restored = load_model(&bytes).expect("round trip");
/// assert_eq!(restored.len(), 1);
/// ```
pub fn save_model(net: &mut Sequential) -> Option<Vec<u8>> {
    let mut header: Vec<(u8, u32, u32, u32)> = Vec::new();
    for layer in net.layers_mut() {
        let any = layer.as_any_mut();
        if let Some(d) = any.downcast_ref::<Dense>() {
            header.push((
                0,
                d.weight().rows() as u32,
                d.weight().cols() as u32,
                activation_tag(d.activation()),
            ));
        } else if let Some(g) = any.downcast_ref::<Gru>() {
            header.push((1, g.input_dim() as u32, g.hidden_dim() as u32, 0));
        } else if let Some(b) = any.downcast_ref::<BiGru>() {
            header.push((2, b.info().in_dim as u32, b.hidden_dim() as u32, 0));
        } else {
            return None;
        }
    }
    let params = net.param_vector();

    let mut out = Vec::with_capacity(16 + LAYER_ENTRY_BYTES * header.len() + 4 * params.len());
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(header.len() as u16).to_le_bytes());
    for (tag, a, b, c) in header {
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&p.to_le_bytes());
    }
    Some(out)
}

impl From<WireError> for LoadModelError {
    /// Every cursor failure here means the buffer's length disagrees with
    /// what its header declares.
    fn from(_: WireError) -> Self {
        LoadModelError::Truncated
    }
}

/// Parameters a layer-table entry describes, `None` for an unknown tag.
/// Dimensions are `u32`, so no product here can overflow `u128`; a round
/// trip fails if this ever disagrees with the built layer's `num_params`.
fn entry_params(tag: u8, a: u32, b: u32) -> Option<u128> {
    let (a, b) = (a as u128, b as u128);
    let gru = CellKind::Gru.params(a, b);
    match tag {
        0 => Some(a * b + b),
        1 => Some(gru),
        2 => Some(2 * gru),
        _ => None,
    }
}

/// Reconstructs a network saved by [`save_model`].
///
/// The whole header is validated before anything is built: the layer
/// table must fit in the buffer, every tag in it must be defined, each
/// layer's input width must be the output width of the one before (`2·b`
/// after a BiGru), the parameter count it implies
/// (counted in `u128`, which `u32` dimensions cannot overflow) must
/// equal the declared count, and `4 · declared` must be exactly the
/// bytes that remain. Only then are
/// the layers constructed, so decoding `n` bytes never allocates more
/// than a small multiple of `n` — weights, their gradient buffers and
/// the parameter vector being copied in.
///
/// # Errors
///
/// Returns a [`LoadModelError`] on any malformed input; never panics.
/// [`LoadModelError::Truncated`] covers both a buffer that ends early
/// and one that carries bytes past the declared parameters.
pub fn load_model(buf: &[u8]) -> Result<Sequential, LoadModelError> {
    let mut r = Reader::new(buf);
    if r.bytes(4)? != MAGIC {
        return Err(LoadModelError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(LoadModelError::UnsupportedVersion(version));
    }
    let layer_count = r.u16()? as usize;
    if LAYER_ENTRY_BYTES * layer_count > r.remaining() {
        return Err(LoadModelError::Truncated);
    }
    let mut table = Vec::with_capacity(layer_count);
    let mut expected = 0u128;
    let mut prev_out = None;
    for layer in 0..layer_count {
        let (tag, a, b, c) = (r.u8()?, r.u32()?, r.u32()?, r.u32()?);
        expected += entry_params(tag, a, b).ok_or(LoadModelError::UnknownLayer(tag))?;
        // only a dense entry reads its `extra` field
        let act = if tag == 0 { activation_from_tag(c)? } else { Activation::Identity };
        let (a, b) = (a as usize, b as usize);
        if let Some(expected) = prev_out.filter(|&out| out != a) {
            return Err(LoadModelError::WidthMismatch { layer, expected, found: a });
        }
        // a BiGru emits both directions side by side
        prev_out = Some(if tag == 2 { b.saturating_mul(2) } else { b });
        table.push((tag, a, b, act));
    }
    let declared = r.u32()? as usize;
    if expected != declared as u128 {
        let expected = usize::try_from(expected).unwrap_or(usize::MAX);
        return Err(LoadModelError::ParamMismatch { expected, found: declared });
    }
    let params = r.f32s(declared)?;
    r.finish()?;

    // every weight is overwritten below, so nothing is sampled
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Sequential::new();
    for (tag, a, b, act) in table {
        match tag {
            0 => net.push(Dense::with_init(a, b, act, Init::Zeros, &mut rng)),
            1 => net.push(Gru::with_init(a, b, Init::Zeros, &mut rng)),
            _ => net.push(BiGru::with_init(a, b, Init::Zeros, &mut rng)),
        };
    }
    net.set_param_vector(&params);
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdl_tensor::Matrix;

    fn sample_net(rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(6, 8, Activation::Relu, rng));
        net.push(Dense::new(8, 3, Activation::Identity, rng));
        net
    }

    #[test]
    fn round_trip_preserves_function() {
        let mut rng = StdRng::seed_from_u64(600);
        let mut net = sample_net(&mut rng);
        let x = Matrix::from_fn(4, 6, |r, c| ((r + c) as f32 * 0.7).sin());
        let before = net.forward(&x);
        let bytes = save_model(&mut net).expect("dense nets are saveable");
        let mut restored = load_model(&bytes).expect("round trip");
        let after = restored.forward(&x);
        assert!(after.approx_eq(&before, 0.0), "bit-exact round trip");
    }

    #[test]
    fn round_trip_with_recurrent_layers() {
        let mut rng = StdRng::seed_from_u64(601);
        let mut net = Sequential::new();
        net.push(Gru::new(3, 5, &mut rng));
        net.push(Dense::new(5, 2, Activation::Tanh, &mut rng));
        let x = Matrix::from_fn(6, 3, |r, c| (r as f32 - c as f32) * 0.2);
        let before = net.forward(&x);
        let bytes = save_model(&mut net).expect("gru nets are saveable");
        let mut restored = load_model(&bytes).expect("round trip");
        assert!(restored.forward(&x).approx_eq(&before, 0.0));
    }

    /// The loader's recurrent builds, before their weights are copied in:
    /// all zeros (no forget-style bias), in the `visit_params` layout the
    /// wire format's parameter vector follows. FNV-1a over `to_bits`.
    #[test]
    fn loader_builds_start_from_pinned_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let fnv = |v: &[f32]| {
            v.iter()
                .flat_map(|p| p.to_bits().to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        };
        let mut gru = Gru::with_init(3, 5, Init::Zeros, &mut rng);
        let mut bigru = BiGru::with_init(3, 5, Init::Zeros, &mut rng);
        let got = [fnv(&gru.param_vector()), fnv(&bigru.param_vector())];
        assert_eq!(got, [0x0e5e4752cb0929d5, 0xb00120a640893585], "Gru / BiGru: {got:#018x?}");
    }

    #[test]
    fn dropout_is_not_saveable() {
        let mut rng = StdRng::seed_from_u64(602);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, Activation::Relu, &mut rng));
        net.push(crate::dense::Dropout::new(4, 0.5, 1));
        assert!(save_model(&mut net).is_none());
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let mut rng = StdRng::seed_from_u64(603);
        let mut net = sample_net(&mut rng);
        let bytes = save_model(&mut net).expect("saveable");

        assert_eq!(load_model(b"np").err(), Some(LoadModelError::Truncated));
        assert_eq!(load_model(b"XXXXxxxxxxxx").err(), Some(LoadModelError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(load_model(&wrong_version).err(), Some(LoadModelError::UnsupportedVersion(99)));

        let truncated = &bytes[..bytes.len() - 3];
        assert_eq!(load_model(truncated).err(), Some(LoadModelError::Truncated));

        let mut bad_tag = bytes.clone();
        bad_tag[7] = 42; // first layer tag
        assert!(matches!(load_model(&bad_tag).err(), Some(LoadModelError::UnknownLayer(42))));

        // first entry: tag at 7, in_dim at 8, out_dim at 12, activation at 16
        let mut bad_activation = bytes.clone();
        bad_activation[16] = 5;
        assert_eq!(load_model(&bad_activation).err(), Some(LoadModelError::UnknownActivation(5)));

        // 7 -> 7 then 8 -> 3: the same 83 parameters as 6 -> 8 -> 3, so only
        // the widths say this is not a network (it used to load, and panic
        // at the first forward)
        let mut bad_chain = bytes.clone();
        (bad_chain[8], bad_chain[12]) = (7, 7);
        assert_eq!(
            load_model(&bad_chain).err(),
            Some(LoadModelError::WidthMismatch { layer: 1, expected: 7, found: 8 })
        );
    }

    /// 24 bytes declaring one 60000 × 60000 dense layer: at the parent
    /// commit the layer (14 GB, Xavier-sampled) was built before the
    /// parameter count was looked at, and the process aborted.
    #[test]
    fn declared_dimensions_are_checked_before_a_layer_is_built() {
        let frame = |declared: u32| {
            let mut f = b"MDLM\x01\x01\x00\x00".to_vec();
            f.extend_from_slice(&60_000u32.to_le_bytes());
            f.extend_from_slice(&60_000u32.to_le_bytes());
            f.extend_from_slice(&0u32.to_le_bytes());
            f.extend_from_slice(&declared.to_le_bytes());
            assert_eq!(f.len(), 24);
            f
        };
        let expected = 60_000usize * 60_000 + 60_000;
        assert_eq!(
            load_model(&frame(0)).err(),
            Some(LoadModelError::ParamMismatch { expected, found: 0 })
        );
        // the count agrees, the bytes behind it are not there
        assert_eq!(load_model(&frame(expected as u32)).err(), Some(LoadModelError::Truncated));
        // dimensions whose product overflows u64 still count cleanly
        let mut huge = frame(u32::MAX);
        huge[7] = 2; // BiGru
        huge[8..16].fill(0xFF);
        assert!(matches!(
            load_model(&huge).err(),
            Some(LoadModelError::ParamMismatch { expected: usize::MAX, .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut rng = StdRng::seed_from_u64(605);
        let mut bytes = save_model(&mut sample_net(&mut rng)).expect("saveable");
        bytes.push(0);
        assert_eq!(load_model(&bytes).err(), Some(LoadModelError::Truncated));
    }

    #[test]
    fn size_is_header_plus_params() {
        let mut rng = StdRng::seed_from_u64(604);
        let mut net = sample_net(&mut rng);
        let n_params = net.num_params();
        let bytes = save_model(&mut net).expect("saveable");
        // magic(4) + version(1) + count(2) + 2 layers × 13 + len(4) + params
        assert_eq!(bytes.len(), 4 + 1 + 2 + 2 * 13 + 4 + 4 * n_params);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mdl_tensor::Matrix;
    use proptest::prelude::*;

    fn act_of(tag: u8) -> Activation {
        match tag % 5 {
            0 => Activation::Identity,
            1 => Activation::Relu,
            2 => Activation::Sigmoid,
            3 => Activation::Tanh,
            // the format hardcodes slope 0.01, so only that round-trips
            _ => Activation::LeakyRelu(0.01),
        }
    }

    /// A net exercising every layer tag the format knows (Dense=0, Gru=1,
    /// BiGru=2) with generated widths and activations.
    fn full_tag_net(w: &[usize], acts: &[u8], seed: u64) -> (Sequential, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(w[0], w[1], act_of(acts[0]), &mut rng));
        net.push(Gru::new(w[1], w[2], &mut rng));
        net.push(BiGru::new(w[2], w[3], &mut rng));
        net.push(Dense::new(2 * w[3], 3, act_of(acts[1]), &mut rng));
        (net, w[0])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_layer_tag_round_trips_bit_exactly(
            w in prop::collection::vec(1usize..5, 4),
            acts in prop::collection::vec(0u8..5, 2),
            seed in 0u64..1000,
        ) {
            let (mut net, in_dim) = full_tag_net(&w, &acts, seed);
            let x = Matrix::from_fn(5, in_dim, |r, c| ((r * 7 + c) as f32 * 0.3).sin());
            let before = net.forward_eval(&x);
            let bytes = save_model(&mut net).expect("standard layers serialize");
            let restored = load_model(&bytes).expect("round trip");
            prop_assert!(restored.forward_eval(&x).approx_eq(&before, 0.0));
        }

        #[test]
        fn every_error_variant_is_reachable(
            w in prop::collection::vec(1usize..5, 4),
            acts in prop::collection::vec(0u8..5, 2),
            seed in 0u64..1000,
            magic_mask in 1u8..=255,
            version_mask in 1u8..=255,
            cut in 1usize..10_000,
            tag_excess in 0u8..253,
            count_mask in 1u32..1_000_000,
        ) {
            let (mut net, _) = full_tag_net(&w, &acts, seed);
            let bytes = save_model(&mut net).expect("standard layers serialize");

            // BadMagic: any corruption of the 4 magic bytes
            let mut bad_magic = bytes.clone();
            bad_magic[(seed % 4) as usize] ^= magic_mask;
            prop_assert_eq!(load_model(&bad_magic).err(), Some(LoadModelError::BadMagic));

            // UnsupportedVersion: any version byte other than 1
            let mut bad_version = bytes.clone();
            bad_version[4] ^= version_mask;
            prop_assert_eq!(
                load_model(&bad_version).err(),
                Some(LoadModelError::UnsupportedVersion(VERSION ^ version_mask))
            );

            // Truncated: every strict prefix ends inside declared content
            let keep = bytes.len() - (1 + cut % bytes.len());
            prop_assert_eq!(
                load_model(&bytes[..keep]).err(),
                Some(LoadModelError::Truncated)
            );

            // UnknownLayer: tags 3..=255 name no layer (first tag is at 7)
            let unknown = 3 + tag_excess;
            let mut bad_tag = bytes.clone();
            bad_tag[7] = unknown;
            prop_assert_eq!(
                load_model(&bad_tag).err(),
                Some(LoadModelError::UnknownLayer(unknown))
            );

            // UnknownActivation: tags 5.. name no activation (the first
            // entry is dense; its `extra` field is at 16)
            let mut bad_act = bytes.clone();
            bad_act[16..20].copy_from_slice(&(4 + count_mask).to_le_bytes());
            prop_assert_eq!(
                load_model(&bad_act).err(),
                Some(LoadModelError::UnknownActivation(4 + count_mask))
            );

            // WidthMismatch: the Gru after the dense layer (its in_dim is
            // at 21) declares a width the dense layer does not emit
            let found = w[1] ^ count_mask as usize;
            let mut bad_width = bytes.clone();
            bad_width[21..25].copy_from_slice(&(found as u32).to_le_bytes());
            prop_assert_eq!(
                load_model(&bad_width).err(),
                Some(LoadModelError::WidthMismatch { layer: 1, expected: w[1], found })
            );

            // ParamMismatch: the count field disagrees with the header
            let expected = net.num_params();
            let found = expected ^ count_mask as usize;
            let count_at = 4 + 1 + 2 + 13 * 4;
            let mut bad_count = bytes.clone();
            bad_count[count_at..count_at + 4]
                .copy_from_slice(&(found as u32).to_le_bytes());
            prop_assert_eq!(
                load_model(&bad_count).err(),
                Some(LoadModelError::ParamMismatch { expected, found })
            );
        }
    }
}
