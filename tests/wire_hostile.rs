//! One hostile-bytes harness for every surface that decodes bytes from
//! outside the process: `load_model` (`MDLM`), `DeltaCheckpoint::from_bytes`
//! then `apply` (`MDLD`), `HuffmanEncoded::from_bytes` then `try_decode`,
//! `Update::decode` (the federated update frame), `RequestRecord::from_bytes`,
//! `ObsSnapshot::from_json` and `ModelRegistry::swap_bytes`.
//!
//! Each surface is fed (i) arbitrary bytes, bare and spliced behind a
//! valid header, (ii) a valid frame truncated at every prefix, (iii) a
//! valid frame with each byte inverted, each bit flipped and each 4-byte
//! window overwritten with `u32::MAX`. The harness asserts that
//!
//! - no input panics a decoder;
//! - every strict prefix of a valid frame is rejected;
//! - an accepted input means what its re-encoding means: re-encoding the
//!   decoded value yields a frame that decodes to the same re-encoding
//!   (and, for the formats with one encoding per value, to the input);
//! - decoding `n` input bytes never *requests* more than the surface's
//!   stated `C · n + K` bytes from the allocator — a declared length is
//!   checked against the bytes that remain before anything is reserved.
//!
//! The valid frames are `tests/golden/wire_frames.txt`, written by the
//! encoders as they stood before the decoders moved onto
//! `mdl_tensor::wire::Reader`; `golden_frames_*` pins today's encoders
//! to those bytes, so `MDLM` / `MDLD` / Huffman / `RequestRecord` / update
//! frame layouts cannot move by a byte unnoticed.
//!
//! The allocator meter is per thread (the `#[test]`s here run in
//! parallel), and counts bytes requested, not bytes live.

use mdl_core::compress::delta::DeltaCheckpoint;
use mdl_core::compress::HuffmanEncoded;
use mdl_core::federated::update::{FrameError, Update};
use mdl_core::nn::{load_model, save_model, BiGru, Gru, LoadModelError};
use mdl_core::obs::{HistogramSnapshot, SpanNode};
use mdl_core::prelude::*;
use mdl_core::serve::{ModelRegistry, RequestRecord, SloClass};
use rand::{Rng, RngCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

// ---------------------------------------------------------------- meter

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// Adds up the sizes this thread asks the system allocator for while armed.
struct Metering;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches two `Cell`s that
// have no destructor and never allocates.
unsafe impl GlobalAlloc for Metering {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Metering = Metering;

/// Runs `f`, returning how many bytes it requested on this thread.
fn metered<T>(f: impl FnOnce() -> T) -> (usize, T) {
    REQUESTED.with(|r| r.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (REQUESTED.with(Cell::get), out)
}

// ------------------------------------------------------- hostile inputs

#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// A frame one of our encoders wrote.
    Accept,
    /// A strict prefix of such a frame.
    Reject,
    /// A mutation or noise: either verdict, never a panic.
    Either,
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Calls `visit` on every hostile input derived from `frames`.
fn for_each_input(frames: &[Vec<u8>], seed: u64, mut visit: impl FnMut(&[u8], Expect)) {
    for frame in frames {
        visit(frame, Expect::Accept);
        for cut in 0..frame.len() {
            visit(&frame[..cut], Expect::Reject);
        }
        let mut m = frame.clone();
        for i in 0..frame.len() {
            for mask in [0xFF, 1, 2, 4, 8, 16, 32, 64, 128] {
                m[i] ^= mask;
                visit(&m, Expect::Either);
                m[i] ^= mask;
            }
        }
        for i in 0..frame.len().saturating_sub(3) {
            m[i..i + 4].fill(0xFF);
            visit(&m, Expect::Either);
            m[i..i + 4].copy_from_slice(&frame[i..i + 4]);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..4000 {
        let mut noise = vec![0u8; rng.gen_range(0..200usize)];
        rng.fill_bytes(&mut noise);
        let input = match (round % 4, frames.is_empty()) {
            // bare noise
            (0, _) | (_, true) => noise,
            // noise behind a valid header of random length
            (1, _) => {
                let frame = &frames[rng.gen_range(0..frames.len())];
                let keep = rng.gen_range(0..=frame.len().min(64));
                [&frame[..keep], &noise[..]].concat()
            }
            // a valid frame with a run of noise written over it
            (2, _) => {
                let mut frame = frames[rng.gen_range(0..frames.len())].clone();
                let at = rng.gen_range(0..frame.len());
                let run = noise.len().min(frame.len() - at).min(12);
                frame[at..at + run].copy_from_slice(&noise[..run]);
                frame
            }
            // a valid frame with noise appended
            _ => {
                let frame = &frames[rng.gen_range(0..frames.len())];
                [&frame[..], &noise[..]].concat()
            }
        };
        visit(&input, Expect::Either);
    }
}

// ------------------------------------------------------------- surfaces

/// One decoder of outside bytes, with its encoder and its stated
/// allocation bound.
trait Surface {
    /// What the decoder produces.
    type Value;
    const NAME: &'static str;
    /// Decoding `n` bytes may request at most `C * n + K` bytes.
    const C: usize;
    const K: usize;
    /// `true` when each value has exactly one encoding, so an accepted
    /// input must equal its own re-encoding.
    const ONE_ENCODING: bool;

    /// Decodes, and drives whatever a caller does next with the value
    /// (`apply`, `try_decode`) — all of it metered, none of it may panic.
    fn decode(input: &[u8]) -> Option<Self::Value>;
    fn encode(value: Self::Value) -> Vec<u8>;
    /// Bytes of `input` the decoder consumed (all of them unless the
    /// format is self-delimiting).
    fn consumed(_value: &Self::Value, input: &[u8]) -> usize {
        input.len()
    }
}

/// Decodes `input` under the meter; `true` when accepted.
fn probe<S: Surface>(input: &[u8]) -> bool {
    let run = catch_unwind(AssertUnwindSafe(|| metered(|| S::decode(input))));
    let (requested, value) =
        run.unwrap_or_else(|_| panic!("{} panicked on {}", S::NAME, hex(input)));
    let bound = S::C * input.len() + S::K;
    assert!(
        requested <= bound,
        "{}: decoding {} bytes requested {requested} > {} * n + {} = {bound}: {}",
        S::NAME,
        input.len(),
        S::C,
        S::K,
        hex(input)
    );
    let Some(value) = value else { return false };
    let used = S::consumed(&value, input);
    let again = S::encode(value);
    if S::ONE_ENCODING {
        assert_eq!(hex(&again), hex(&input[..used]), "{}: accepted a second encoding", S::NAME);
    }
    let back = S::decode(&again)
        .unwrap_or_else(|| panic!("{}: own re-encoding of {} rejected", S::NAME, hex(input)));
    assert_eq!(
        hex(&S::encode(back)),
        hex(&again),
        "{}: {} does not mean what its re-encoding means",
        S::NAME,
        hex(input)
    );
    true
}

fn hostile<S: Surface>(frames: &[Vec<u8>], seed: u64) {
    let mut accepted_mutations = 0usize;
    for_each_input(frames, seed, |input, expect| {
        let accepted = probe::<S>(input);
        match expect {
            Expect::Accept => assert!(accepted, "{}: rejected {}", S::NAME, hex(input)),
            Expect::Reject => assert!(!accepted, "{}: accepted prefix {}", S::NAME, hex(input)),
            Expect::Either => accepted_mutations += usize::from(accepted),
        }
    });
    // the mutations are not all dead on arrival: some land in payload
    // bytes and exercise the accepting path too
    assert!(frames.is_empty() || accepted_mutations > 0, "{}: no mutation accepted", S::NAME);
}

struct Mdlm;

impl Surface for Mdlm {
    type Value = Sequential;
    const NAME: &'static str = "load_model";
    // A zero-width BiGru entry is 13 bytes on the wire and a 2.4 KB boxed
    // layer of empty matrices in memory (184 B/B measured): fixed per-layer
    // state, not declared sizes, sets the constant. Weights cost 3 × 4 B
    // per 4 B parameter (value, gradient buffer, the vector copied from).
    const C: usize = 256;
    const K: usize = 4096;
    // a recurrent entry's unused `extra` field is read and dropped
    const ONE_ENCODING: bool = false;

    fn decode(input: &[u8]) -> Option<Sequential> {
        load_model(input).ok()
    }

    fn encode(mut net: Sequential) -> Vec<u8> {
        save_model(&mut net).expect("load_model builds only saveable layers")
    }
}

struct Mdld;

impl Surface for Mdld {
    type Value = DeltaCheckpoint;
    const NAME: &'static str = "DeltaCheckpoint::from_bytes + apply";
    // from_bytes: ≤ 4 B per one-byte index varint, ≤ 8 decoded symbols
    // per Huffman byte. apply only gets past its length check against a
    // fixture base (≤ 1200 params), which K covers.
    const C: usize = 32;
    const K: usize = 64 * 1024;
    // varints may be padded
    const ONE_ENCODING: bool = false;

    fn decode(input: &[u8]) -> Option<DeltaCheckpoint> {
        let delta = DeltaCheckpoint::from_bytes(input).ok()?;
        for (base, _) in delta_versions().values() {
            if let Ok(new) = delta.apply(base) {
                assert_eq!(new.len(), base.len());
            }
        }
        Some(delta)
    }

    fn encode(delta: DeltaCheckpoint) -> Vec<u8> {
        delta.to_bytes()
    }
}

struct Huffman;

impl Surface for Huffman {
    type Value = (HuffmanEncoded, usize);
    const NAME: &'static str = "HuffmanEncoded::from_bytes + try_decode";
    // ≤ 8 symbols per bitstream byte, decoded once by from_bytes and once
    // by try_decode, plus the copied table and bitstream
    const C: usize = 24;
    const K: usize = 16 * 1024;
    const ONE_ENCODING: bool = true;

    fn decode(input: &[u8]) -> Option<Self::Value> {
        let (block, used) = HuffmanEncoded::from_bytes(input)?;
        let symbols = block.try_decode().expect("from_bytes accepts only decodable blocks");
        assert_eq!(symbols.len(), block.len());
        Some((block, used))
    }

    fn encode((block, _): Self::Value) -> Vec<u8> {
        block.to_bytes()
    }

    fn consumed(value: &Self::Value, _input: &[u8]) -> usize {
        value.1
    }
}

/// Length of the vectors behind the golden update frames.
const UPDATE_DIM: usize = 5;

struct Frame;

impl Surface for Frame {
    type Value = Update;
    const NAME: &'static str = "Update::decode + apply_to";
    // f32s, (index, value) entries and codes are kept as they arrive; a
    // frame of the fixture's length is then densified once by apply_to
    const C: usize = 1;
    const K: usize = 64;
    const ONE_ENCODING: bool = true;

    fn decode(input: &[u8]) -> Option<Update> {
        let update = Update::decode(input).ok()?;
        // what a server does next, against a model of the fixture's length
        let mut params = [0.0f32; UPDATE_DIM];
        assert_eq!(update.apply_to(&mut params, 1.0), update.dim() == UPDATE_DIM);
        Some(update)
    }

    fn encode(update: Update) -> Vec<u8> {
        update.encode()
    }
}

struct Record;

impl Surface for Record {
    type Value = RequestRecord;
    const NAME: &'static str = "RequestRecord::from_bytes";
    const C: usize = 0;
    const K: usize = 0;
    const ONE_ENCODING: bool = true;

    fn decode(input: &[u8]) -> Option<RequestRecord> {
        RequestRecord::from_bytes(input)
    }

    fn encode(record: RequestRecord) -> Vec<u8> {
        record.to_bytes().to_vec()
    }
}

struct Snapshot;

impl Surface for Snapshot {
    type Value = ObsSnapshot;
    const NAME: &'static str = "ObsSnapshot::from_json";
    // a two-byte `0,` becomes a 32-byte `Json` in a vector that doubles
    // (42 B/B measured); the snapshot built from the tree is smaller
    const C: usize = 64;
    const K: usize = 4096;
    // whitespace, number spellings
    const ONE_ENCODING: bool = false;

    fn decode(input: &[u8]) -> Option<ObsSnapshot> {
        ObsSnapshot::from_json(std::str::from_utf8(input).ok()?).ok()
    }

    fn encode(snapshot: ObsSnapshot) -> Vec<u8> {
        snapshot.to_json().into_bytes()
    }
}

// --------------------------------------------------------------- frames

/// `tests/golden/wire_frames.txt`: `name hex` per line, written by the
/// parent commit's encoders from the inputs rebuilt below.
fn golden() -> BTreeMap<&'static str, Vec<u8>> {
    include_str!("golden/wire_frames.txt")
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex`");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
                .collect();
            (name, bytes)
        })
        .collect()
}

fn golden_frames(prefix: &str) -> Vec<Vec<u8>> {
    golden().into_iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, f)| f).collect()
}

/// Every layer tag the `MDLM` format knows, parameters set by formula so
/// the frame does not depend on an init RNG stream.
fn golden_net() -> Sequential {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = Sequential::new();
    net.push(Dense::new(3, 2, Activation::Relu, &mut rng));
    net.push(Gru::new(2, 2, &mut rng));
    net.push(BiGru::new(2, 1, &mut rng));
    net.push(Dense::new(2, 2, Activation::Tanh, &mut rng));
    let params: Vec<f32> = (0..net.num_params()).map(|i| (i as f32 * 0.37).sin()).collect();
    net.set_param_vector(&params);
    net
}

/// `(base, new)` behind each golden `MDLD` frame, one per payload layout
/// plus the two-byte-code (`wide`) variant.
fn delta_versions() -> &'static Versions {
    static VERSIONS: OnceLock<Versions> = OnceLock::new();
    VERSIONS.get_or_init(build_delta_versions)
}

/// Frame name → `(base, new)`.
type Versions = BTreeMap<&'static str, (Vec<f32>, Vec<f32>)>;

fn build_delta_versions() -> Versions {
    let mut out = BTreeMap::new();

    let base: Vec<f32> = (0..40).map(|i| i as f32 * 0.1).collect();
    let mut new = base.clone();
    (new[3], new[17], new[39]) = (f32::NAN, -0.0, 1e-42);
    out.insert("mdld-sparse-raw", (base, new));

    let base: Vec<f32> = (0..600).map(|i| ((i * 37) % 16) as f32 * 0.01).collect();
    let mut new = base.clone();
    for i in (0..600).step_by(3) {
        new[i] = ((i * 11 + 3) % 4) as f32 * 0.01 + 1.0;
    }
    out.insert("mdld-sparse-coded", (base, new));

    let base: Vec<f32> = (0..400).map(|i| i as f32).collect();
    let new: Vec<f32> = (0..400).map(|i| -((i % 3) as f32) - 0.5).collect();
    out.insert("mdld-dense-coded", (base, new));

    let base: Vec<f32> = (0..12).map(|i| i as f32).collect();
    let new: Vec<f32> = (0..12).map(|i| i as f32 * 1.0001 + 0.5).collect();
    out.insert("mdld-dense-raw", (base, new));

    let base = vec![0.0f32; 1200];
    let new: Vec<f32> =
        (0..1200).map(|i| if i % 2 == 0 { ((i / 2) % 300) as f32 + 1.0 } else { 0.0 }).collect();
    out.insert("mdld-wide-dense-coded", (base, new));
    out
}

/// The input behind each golden update frame. The dense one is byte for
/// byte the frame dense uploads had before the frame had other kinds.
fn golden_updates() -> [(&'static str, Update); 3] {
    [
        ("update-dense", Update::dense(vec![1.0, -2.5, f32::NAN, 1e-42, -0.0], 17)),
        ("update-sparse", Update::top_fraction(&[0.25, -4.0, 1e-42, 3.0, -0.0], 0.5, 9)),
        ("update-quantized", Update::quantize(&[1.0, -2.5, 0.0, 3.25, 0.5], 17)),
    ]
}

fn golden_record() -> RequestRecord {
    RequestRecord {
        index: 0x0102_0304,
        arrival_ns: 0x1122_3344_5566_7788,
        class: SloClass::BestEffort,
        row: 77,
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn sample_snapshot() -> ObsSnapshot {
    let span = |id, name: &str, children| SpanNode {
        id,
        name: name.to_string(),
        start_ns: 10 * id,
        end_ns: 10 * id + 7,
        children,
    };
    ObsSnapshot {
        clock: ClockKind::Sim,
        now_ns: 123_456,
        counters: vec![("fed.rounds".into(), 5), ("net.bytes\n\"up\"".into(), 1 << 40)],
        gauges: vec![("serve.queue".into(), -0.125), ("tiny".into(), 1e-300)],
        histograms: vec![
            HistogramSnapshot {
                name: "lat".into(),
                scheme: Buckets::Pow2,
                count: 3,
                sum: 70,
                min: 2,
                max: 60,
                p50: 8,
                p95: 60,
                p99: 60,
                buckets: vec![(1, 1), (3, 1), (5, 1)],
            },
            HistogramSnapshot {
                name: "rows".into(),
                scheme: Buckets::Linear { width: 4, count: 16 },
                count: 1,
                sum: 9,
                min: 9,
                max: 9,
                p50: 9,
                p95: 9,
                p99: 9,
                buckets: vec![(2, 1)],
            },
        ],
        spans: vec![span(1, "round", vec![span(2, "train", vec![span(3, "gemm", vec![])])])],
        dropped_spans: 2,
    }
}

// ---------------------------------------------------------------- tests

/// The decoders read the parent commit's frames, and today's encoders
/// still write them byte for byte.
#[test]
fn golden_frames_decode_and_re_encode_byte_for_byte() {
    let golden = golden();
    assert_eq!(golden.len(), 11, "mdlm, five mdld layouts, huffman, request-record, 3 updates");

    let mut net = golden_net();
    assert_eq!(hex(&save_model(&mut net).unwrap()), hex(&golden["mdlm"]));
    let mut loaded = load_model(&golden["mdlm"]).expect("parent-written MDLM frame");
    assert_eq!(bits(&loaded.param_vector()), bits(&net.param_vector()));
    assert_eq!(format!("{:?}", loaded.layer_infos()), format!("{:?}", net.layer_infos()));
    let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.3).cos());
    assert_eq!(bits(loaded.forward_eval(&x).as_slice()), bits(net.forward_eval(&x).as_slice()));

    let versions = delta_versions();
    assert_eq!(versions.len(), 5);
    for (&name, (base, new)) in versions {
        let frame = &golden[name];
        let delta = DeltaCheckpoint::from_bytes(frame).expect("parent-written MDLD frame");
        assert!(name.ends_with(delta.mode_name()), "{name} decoded as {}", delta.mode_name());
        assert_eq!(hex(&delta.to_bytes()), hex(frame), "{name}");
        assert_eq!(bits(&delta.apply(base).unwrap()), bits(new), "{name}");
        let (b, n) = (delta.base_version(), delta.new_version());
        assert_eq!(hex(&DeltaCheckpoint::encode(base, new, b, n).to_bytes()), hex(frame), "{name}");
    }

    let text = b"abracadabra alakazam";
    assert_eq!(hex(&HuffmanEncoded::encode(text).to_bytes()), hex(&golden["huffman"]));
    let (block, used) = HuffmanEncoded::from_bytes(&golden["huffman"]).expect("parent-written");
    assert_eq!((block.decode(), used), (text.to_vec(), golden["huffman"].len()));

    assert_eq!(hex(&golden_record().to_bytes()), hex(&golden["request-record"]));
    assert_eq!(RequestRecord::from_bytes(&golden["request-record"]), Some(golden_record()));

    for (name, update) in golden_updates() {
        assert_eq!(update.dim(), UPDATE_DIM, "{name}");
        assert_eq!(hex(&update.encode()), hex(&golden[name]), "{name}");
        let back = Update::decode(&golden[name]).expect(name);
        assert_eq!(hex(&back.encode()), hex(&golden[name]), "{name}");
    }
}

/// Update frames no encoder writes are typed errors, decoded without
/// reserving anything the bytes cannot back.
#[test]
fn update_frame_reproducers_are_typed_errors() {
    let words = |w: &[u32]| -> Vec<u8> { w.iter().flat_map(|v| v.to_le_bytes()).collect() };
    let sparse = 1u32 << 30;
    let cases = [
        // one entry at index 4 of a 4-vector, which a sparse apply used to
        // index out of bounds
        (words(&[sparse | 4, 1, 1, 4, 0]), FrameError::BadIndex),
        // index 2, then 2 again
        (words(&[sparse | 4, 2, 1, 2, 0, 2, 0]), FrameError::BadIndex),
        // three entries for a 2-vector
        (words(&[sparse | 2, 3, 1, 0, 0, 1, 0, 2, 0]), FrameError::BadIndex),
        // kind 3
        (words(&[3 << 30, 0]), FrameError::UnknownKind),
        // a dense frame declaring 2^30 - 1 values, then three bytes
        (
            [&words(&[(1 << 30) - 1])[..], &[0, 0, 0]].concat(),
            FrameError::Wire(mdl_core::tensor::wire::WireError::Truncated),
        ),
    ];
    for (frame, expected) in cases {
        let (requested, result) = metered(|| Update::decode(&frame));
        assert_eq!(result, Err(expected), "{}", hex(&frame));
        assert!(requested <= frame.len(), "{requested} bytes requested for {}", hex(&frame));
    }
}

/// The four frames that aborted or panicked the process at ccc01d1, and
/// the two malformed ones `load_model` still accepted at 250b5cb, are
/// errors.
#[test]
fn parent_commit_reproducers_are_errors() {
    // 39-byte MDLD: dense-raw with total = u32::MAX reserved 17 179 869 180 B
    let mut mdld = b"MDLD\x01".to_vec();
    mdld.extend_from_slice(&[0; 24]);
    mdld.extend_from_slice(&u32::MAX.to_le_bytes());
    mdld.extend_from_slice(&[3, 0, 0, 0, 0, 0]);
    assert_eq!(mdld.len(), 39);
    let (requested, result) = metered(|| DeltaCheckpoint::from_bytes(&mdld));
    assert!(result.is_err() && requested < 4096, "{result:?} after {requested} bytes");

    // 24-byte MDLM: a 60000 x 60000 Dense was built before the count check
    let mut mdlm = b"MDLM\x01\x01\x00\x00".to_vec();
    mdlm.extend_from_slice(&60_000u32.to_le_bytes());
    mdlm.extend_from_slice(&60_000u32.to_le_bytes());
    mdlm.extend_from_slice(&[0; 8]);
    assert_eq!(mdlm.len(), 24);
    let (requested, result) = metered(|| load_model(&mdlm).map(|_| ()));
    assert!(
        matches!(result, Err(LoadModelError::ParamMismatch { .. } | LoadModelError::Truncated)),
        "{result:?}"
    );
    assert!(requested < 4096, "{requested} bytes requested");

    // two frames `load_model` accepted at 250b5cb: a 3 -> 2 dense layer
    // feeding a 3 -> 2 one (the right parameter count, so it loaded and
    // panicked at the first forward), and activation tag 9 read as Identity
    let two_dense = |first: [u32; 3], second: [u32; 3], params: u32| {
        let mut f = b"MDLM\x01\x02\x00".to_vec();
        for fields in [first, second] {
            f.push(0);
            f.extend(fields.iter().flat_map(|v| v.to_le_bytes()));
        }
        f.extend_from_slice(&params.to_le_bytes());
        f.resize(f.len() + 4 * params as usize, 0);
        f
    };
    assert_eq!(
        load_model(&two_dense([3, 2, 1], [3, 2, 1], 16)).err(),
        Some(LoadModelError::WidthMismatch { layer: 1, expected: 2, found: 3 })
    );
    assert_eq!(
        load_model(&two_dense([3, 2, 1], [2, 2, 9], 14)).err(),
        Some(LoadModelError::UnknownActivation(9))
    );
    assert!(load_model(&two_dense([3, 2, 1], [2, 2, 4], 14)).is_ok(), "the frames are well formed");

    // 13-byte Huffman block: a code length of 200 indexed a 33-slot table
    let huffman = [1, 0, 200, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0];
    assert_eq!(HuffmanEncoded::from_bytes(&huffman), None);

    // 2 000 000 '[' overflowed the stack through ObsSnapshot::from_json
    let deep = "[".repeat(2_000_000);
    assert_eq!(ObsSnapshot::from_json(&deep).unwrap_err().message, "nesting too deep");
}

#[test]
fn load_model_survives_hostile_bytes() {
    let mut frames = golden_frames("mdlm");
    // the architectures the serving tests swap in, and the degenerate one
    let mut rng = StdRng::seed_from_u64(21);
    let mut mlp = Sequential::new();
    mlp.push(Dense::new(6, 8, Activation::Relu, &mut rng));
    mlp.push(Dense::new(8, 3, Activation::Identity, &mut rng));
    frames.push(save_model(&mut mlp).unwrap());
    frames.push(save_model(&mut Sequential::new()).unwrap());
    hostile::<Mdlm>(&frames, 1);
}

#[test]
fn delta_checkpoint_survives_hostile_bytes() {
    hostile::<Mdld>(&golden_frames("mdld"), 2);
}

#[test]
fn huffman_block_survives_hostile_bytes() {
    let mut frames = golden_frames("huffman");
    frames.push(HuffmanEncoded::encode(&[7; 100]).to_bytes());
    frames.push(HuffmanEncoded::encode(&[]).to_bytes());
    hostile::<Huffman>(&frames, 3);
}

#[test]
fn dense_update_survives_hostile_bytes() {
    let mut frames = golden_frames("update-dense");
    frames.push(Update::dense(vec![], 0).encode());
    hostile::<Frame>(&frames, 4);
}

#[test]
fn sparse_update_survives_hostile_bytes() {
    hostile::<Frame>(&golden_frames("update-sparse"), 8);
}

#[test]
fn quantized_update_survives_hostile_bytes() {
    hostile::<Frame>(&golden_frames("update-quantized"), 9);
}

#[test]
fn request_record_survives_hostile_bytes() {
    hostile::<Record>(&golden_frames("request-record"), 5);
}

#[test]
fn obs_snapshot_survives_hostile_bytes() {
    let snapshot = sample_snapshot();
    assert_eq!(ObsSnapshot::from_json(&snapshot.to_json()).as_ref(), Ok(&snapshot));
    hostile::<Snapshot>(&[snapshot.to_json().into_bytes()], 6);
}

/// A rejected upload leaves the registry exactly as it was: same version,
/// same answers. An accepted one is the next version and answers as the
/// model `load_model` builds from the same bytes.
#[test]
fn swap_bytes_survives_hostile_bytes() {
    let mut served = golden_net();
    let frame = save_model(&mut served).unwrap();
    let registry = ModelRegistry::from_bytes(&frame).expect("valid artifact");
    let x = Matrix::from_fn(4, 3, |r, c| ((r + 2 * c) as f32 * 0.2).sin());
    let answer = |reg: &ModelRegistry| bits(reg.current().model.forward_eval(&x).as_slice());

    let mut expected_version = 1;
    let mut expected_answer = answer(&registry);
    assert_eq!(expected_answer, bits(served.forward_eval(&x).as_slice()));
    for_each_input(std::slice::from_ref(&frame), 7, |input, expect| {
        let swapped = catch_unwind(AssertUnwindSafe(|| registry.swap_bytes(input)))
            .unwrap_or_else(|_| panic!("swap_bytes panicked on {}", hex(input)));
        match swapped {
            Ok(version) => {
                assert_ne!(expect, Expect::Reject, "accepted prefix {}", hex(input));
                expected_version += 1;
                assert_eq!(version, expected_version);
                let direct = load_model(input).expect("swap_bytes accepted it");
                let infos = format!("{:?}", direct.layer_infos());
                assert_eq!(format!("{:?}", registry.current().model.layer_infos()), infos);
                if infos == format!("{:?}", served.layer_infos()) {
                    // same architecture as the served net: safe to ask it
                    expected_answer = bits(direct.forward_eval(&x).as_slice());
                    assert_eq!(answer(&registry), expected_answer);
                } else {
                    // put the served architecture back so answers stay askable
                    expected_version = registry.swap(load_model(&frame).expect("valid"));
                    expected_answer = answer(&registry);
                }
            }
            Err(_) => {
                assert_ne!(expect, Expect::Accept, "rejected {}", hex(input));
                assert_eq!(registry.version(), expected_version, "after {}", hex(input));
                assert_eq!(answer(&registry), expected_answer, "after {}", hex(input));
            }
        }
    });
    assert!(expected_version > 1, "some mutated frame should still be a model");
}

/// Inputs built to amplify: the frames whose decoded form is largest per
/// input byte. They are what the stated `C`s are sized against.
#[test]
fn worst_case_amplifiers_stay_inside_the_stated_bounds() {
    // MDLM: thousands of zero-width BiGru entries — 13 bytes each on the
    // wire, a boxed layer of empty matrices each in memory
    let layers = 5000u16;
    let mut mdlm = b"MDLM\x01".to_vec();
    mdlm.extend_from_slice(&layers.to_le_bytes());
    for _ in 0..layers {
        mdlm.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    }
    mdlm.extend_from_slice(&0u32.to_le_bytes());
    assert!(probe::<Mdlm>(&mdlm), "zero-width layers are a (useless) model");

    // Huffman: one symbol with a one-bit code, eight symbols per byte
    let bits = 20_000u32;
    let mut huffman = vec![1, 0, 1];
    huffman.extend_from_slice(&(8 * bits).to_le_bytes());
    huffman.extend_from_slice(&bits.to_le_bytes());
    huffman.resize(huffman.len() + bits as usize, 0);
    assert!(probe::<Huffman>(&huffman));

    // MDLD: a sparse-coded frame whose every index is a one-byte varint
    // and whose every value is a one-bit code into a one-entry codebook
    let changed = 16_000u32;
    let mut mdld = b"MDLD\x01".to_vec();
    mdld.extend_from_slice(&[0; 24]);
    mdld.extend_from_slice(&(changed + 1).to_le_bytes());
    mdld.extend_from_slice(&[1, 0]);
    mdld.extend_from_slice(&changed.to_le_bytes());
    mdld.push(0);
    mdld.resize(mdld.len() + changed as usize - 1, 1);
    mdld.extend_from_slice(&1u32.to_le_bytes());
    mdld.extend_from_slice(&7u32.to_le_bytes());
    mdld.extend_from_slice(&[1, 0, 1]);
    mdld.extend_from_slice(&changed.to_le_bytes());
    mdld.extend_from_slice(&(changed / 8).to_le_bytes());
    mdld.resize(mdld.len() + changed as usize / 8, 0);
    assert!(probe::<Mdld>(&mdld));

    // JSON: the cheapest values to write, each a full `Json` in memory
    let zeros = format!("[{}0]", "0,".repeat(50_000));
    assert!(!probe::<Snapshot>(zeros.as_bytes()), "an array is not a snapshot");
    let empties = format!("[{}[]]", "[],".repeat(50_000));
    assert!(!probe::<Snapshot>(empties.as_bytes()));
    let members = format!("{{{}\"\":0}}", "\"\":0,".repeat(50_000));
    assert!(!probe::<Snapshot>(members.as_bytes()));
}
