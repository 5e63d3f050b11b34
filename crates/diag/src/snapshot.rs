//! Binary checkpoint/restart of a full simulation state.
//!
//! The ADIOS substitution: a compact little-endian binary container holding
//! every species' distribution-function coefficients plus the EM field and
//! the simulation clock. Restart is bit-exact (asserted in the integration
//! tests), which is the property production kinetic runs rely on — §IV
//! points out a modest 6D run checkpoints a terabyte of distribution
//! function, so the format streams without intermediate copies.

use dg_core::observer::{Frame, Observer, Trigger};
use dg_core::system::SystemState;
use dg_grid::DgField;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: u64 = 0x564C_4153_4F56_4447; // "VLASOVDG"
const VERSION: u32 = 1;

/// Serialize a state (plus time stamp) to a writer.
pub fn write_state(state: &SystemState, time: f64, mut out: impl Write) -> std::io::Result<()> {
    let mut header = Vec::with_capacity(24);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&VERSION.to_le_bytes());
    header.extend_from_slice(&time.to_le_bytes());
    header.extend_from_slice(&(state.species_f.len() as u32).to_le_bytes());
    out.write_all(&header)?;
    for f in state.species_f.iter().chain(std::iter::once(&state.em)) {
        let mut meta = Vec::with_capacity(16);
        meta.extend_from_slice(&(f.ncells() as u64).to_le_bytes());
        meta.extend_from_slice(&(f.ncoeff() as u64).to_le_bytes());
        out.write_all(&meta)?;
        // Stream coefficients little-endian without building a copy of the
        // whole (possibly huge) array.
        let mut chunk = Vec::with_capacity(8 * 4096);
        for block in f.as_slice().chunks(4096) {
            chunk.clear();
            for &v in block {
                chunk.extend_from_slice(&v.to_le_bytes());
            }
            out.write_all(&chunk)?;
        }
    }
    Ok(())
}

/// The leading `N` bytes of `buf`, which then starts after them.
///
/// # Panics
///
/// When `buf` is shorter than `N` (the callers read fixed-size headers).
fn next<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .expect("a fixed-size header holds every field");
    *buf = rest;
    *head
}

/// Deserialize a state; returns `(state, time)`.
///
/// The header's counts are not trusted: every buffer grows only as the
/// bytes it describes arrive, so a hostile or torn input ends in an
/// `InvalidData` (sizes that cannot be) or `UnexpectedEof` (too few bytes)
/// error, never an allocation the input does not back.
pub fn read_state(input: impl Read) -> std::io::Result<(SystemState, f64)> {
    read_within(input, None)
}

/// [`read_state`] of an input of `len` bytes when that is known ([`load`]):
/// a field claiming more bytes than are left is rejected before it is
/// read, and one that fits gets its buffer at its final size.
fn read_within(mut input: impl Read, mut len: Option<u64>) -> std::io::Result<(SystemState, f64)> {
    let mut head = [0u8; 24];
    take(&mut len, 24)?;
    input.read_exact(&mut head)?;
    let mut buf = &head[..];
    let magic = u64::from_le_bytes(next(&mut buf));
    let version = u32::from_le_bytes(next(&mut buf));
    if magic != MAGIC || version != VERSION {
        return Err(invalid(
            "not a vlasov-dg snapshot (or incompatible version)",
        ));
    }
    let time = f64::from_le_bytes(next(&mut buf));
    let nspecies = u32::from_le_bytes(next(&mut buf));

    let mut species_f = Vec::new();
    for _ in 0..nspecies {
        species_f.push(read_field(&mut input, &mut len)?);
    }
    let em = read_field(&mut input, &mut len)?;
    Ok((SystemState { species_f, em }, time))
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Count `bytes` off the known input length `len`.
fn take(len: &mut Option<u64>, bytes: u64) -> std::io::Result<()> {
    if let Some(left) = len {
        *left = left
            .checked_sub(bytes)
            .ok_or_else(|| invalid("snapshot claims more bytes than the file holds"))?;
    }
    Ok(())
}

/// One field: its `(ncells, ncoeff)` header, then the coefficients in
/// chunks of at most 4096 values.
fn read_field(input: &mut impl Read, len: &mut Option<u64>) -> std::io::Result<DgField> {
    const CHUNK: usize = 4096;
    let mut meta = [0u8; 16];
    take(len, 16)?;
    input.read_exact(&mut meta)?;
    let mut b = &meta[..];
    let size = |n: u64| usize::try_from(n).map_err(|_| invalid("field size overflows usize"));
    let ncells = size(u64::from_le_bytes(next(&mut b)))?;
    let ncoeff = size(u64::from_le_bytes(next(&mut b)))?;
    let total = ncells
        .checked_mul(ncoeff)
        .filter(|n| n.checked_mul(8).is_some())
        .ok_or_else(|| invalid("field size overflows usize"))?;
    take(len, 8 * total as u64)?;
    let mut data = Vec::with_capacity(if len.is_some() { total } else { 0 });
    let mut raw = [0u8; 8 * CHUNK];
    while data.len() < total {
        let n = (total - data.len()).min(CHUNK);
        input.read_exact(&mut raw[..8 * n])?;
        data.extend(
            raw[..8 * n]
                .chunks_exact(8)
                .map(|v| f64::from_le_bytes(v.try_into().expect("8-byte chunk"))),
        );
    }
    Ok(DgField::from_vec(ncells, ncoeff, data))
}

/// File-based convenience wrappers. `save` is crash-safe: the state is
/// streamed to a `.tmp` sibling and renamed into place, so a process
/// killed mid-write never leaves a torn file at `path` for
/// `App::restore` to read — at worst a stale `.tmp` that `load` and
/// [`latest_checkpoint`] both ignore. Concurrent writers of *different*
/// paths (one directory per ensemble job) never collide; same-path
/// writers last-wins a whole file, never interleave.
pub fn save(path: impl AsRef<Path>, state: &SystemState, time: f64) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        write_state(state, time, &mut w)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// `path` with `.tmp` appended to the file name (same directory, so the
/// final `rename` never crosses a filesystem boundary).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

pub fn load(path: impl AsRef<Path>) -> std::io::Result<(SystemState, f64)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    read_within(BufReader::new(file), Some(len))
}

/// Scan `dir` for step-stamped checkpoints written by [`Checkpoint`]
/// (files named `{stem}_{NNNNNN}.vdg`) and return the one with the
/// highest step count as `(path, steps)`. Stale `.tmp` files from an
/// interrupted [`save`] and unrelated files are ignored; a missing
/// directory is simply "no checkpoint yet". The reduction is a `max`
/// over unique step stamps, so the result is deterministic regardless
/// of directory-iteration order.
pub fn latest_checkpoint(dir: impl AsRef<Path>, stem: &str) -> Option<(PathBuf, usize)> {
    let entries = std::fs::read_dir(dir.as_ref()).ok()?;
    let mut best: Option<(PathBuf, usize)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stamp) = name
            .strip_prefix(stem)
            .and_then(|s| s.strip_prefix('_'))
            .and_then(|s| s.strip_suffix(".vdg"))
        else {
            continue;
        };
        let Ok(steps) = stamp.parse::<usize>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(_, b)| steps > *b) {
            best = Some((entry.path(), steps));
        }
    }
    best
}

/// A checkpoint record: which step/time a file holds.
#[derive(Clone, Debug)]
pub struct CheckpointRecord {
    pub steps: usize,
    pub time: f64,
    pub path: PathBuf,
}

/// Trigger-scheduled checkpoint observer for `App::run`: each firing
/// writes the full state to `dir/stem_NNNNNN.vdg` (step-stamped, so a
/// mid-run file survives later firings) and records it in
/// [`Checkpoint::written`]. Restart with `snapshot::load` +
/// `App::restore` reproduces the interrupted trajectory bit-for-bit
/// (asserted in the restart integration test).
pub struct Checkpoint {
    dir: PathBuf,
    stem: String,
    trigger: Trigger,
    pub written: Vec<CheckpointRecord>,
}

impl Checkpoint {
    pub fn new(dir: impl Into<PathBuf>, stem: &str, trigger: Trigger) -> Self {
        Checkpoint {
            dir: dir.into(),
            stem: stem.to_string(),
            trigger,
            written: Vec::new(),
        }
    }

    /// The most recent checkpoint, if any.
    pub fn last(&self) -> Option<&CheckpointRecord> {
        self.written.last()
    }

    /// The checkpoint written at exactly `steps` total steps, if any.
    pub fn at_steps(&self, steps: usize) -> Option<&CheckpointRecord> {
        self.written.iter().find(|r| r.steps == steps)
    }
}

impl Observer for Checkpoint {
    fn trigger(&self) -> Trigger {
        self.trigger
    }

    fn observe(&mut self, frame: &Frame<'_>) -> Result<(), dg_core::Error> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(format!("{}_{:06}.vdg", self.stem, frame.steps));
        save(&path, frame.state, frame.time)?;
        self.written.push(CheckpointRecord {
            steps: frame.steps,
            time: frame.time,
            path,
        });
        Ok(())
    }

    fn name(&self) -> &str {
        "checkpoint"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_state(seed: u64) -> SystemState {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut mk = |ncells: usize, ncoeff: usize| {
            let mut f = DgField::zeros(ncells, ncoeff);
            for v in f.as_mut_slice() {
                *v = rng.random_range(-1.0..1.0);
            }
            f
        };
        SystemState {
            species_f: vec![mk(12, 8), mk(12, 8)],
            em: mk(3, 32),
        }
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let state = random_state(99);
        let mut buf = Vec::new();
        write_state(&state, 1.234567890123456, &mut buf).unwrap();
        let (back, t) = read_state(&buf[..]).unwrap();
        assert_eq!(t, 1.234567890123456);
        assert_eq!(back.species_f.len(), 2);
        for (a, b) in state.species_f.iter().zip(&back.species_f) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        assert_eq!(state.em.as_slice(), back.em.as_slice());
    }

    #[test]
    fn rejects_garbage() {
        let garbage = [0u8; 64];
        assert!(read_state(&garbage[..]).is_err());
    }

    #[test]
    fn writes_the_documented_bytes() {
        // The format, byte by byte: magic, version, time, species count,
        // then per field (species in order, the EM field last) its cell and
        // coefficient counts and its coefficients, all little-endian.
        let field = |ncells, ncoeff, data: &[f64]| DgField::from_vec(ncells, ncoeff, data.to_vec());
        let state = SystemState {
            species_f: vec![field(2, 1, &[1.0, -0.0])],
            em: field(1, 3, &[f64::MIN_POSITIVE, -2.5, f64::INFINITY]),
        };
        let mut want: Vec<u8> = b"GDVOSALV".to_vec();
        want.extend([1, 0, 0, 0]);
        want.extend([0, 0, 0, 0, 0, 0, 0xd0, 0x3f]); // 0.25
        want.extend([1, 0, 0, 0]);
        want.extend([2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
        want.extend([0, 0, 0, 0, 0, 0, 0xf0, 0x3f]); // 1.0
        want.extend([0, 0, 0, 0, 0, 0, 0, 0x80]); // -0.0
        want.extend([1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
        want.extend([0, 0, 0, 0, 0, 0, 0x10, 0x00]); // smallest normal
        want.extend([0, 0, 0, 0, 0, 0, 0x04, 0xc0]); // -2.5
        want.extend([0, 0, 0, 0, 0, 0, 0xf0, 0x7f]); // +inf
        let mut got = Vec::new();
        write_state(&state, 0.25, &mut got).unwrap();
        assert_eq!(got, want);
        let (back, t) = read_state(&want[..]).unwrap();
        assert_eq!(t, 0.25);
        assert_eq!(
            back.species_f[0].as_slice()[1].to_bits(),
            (-0.0f64).to_bits()
        );
        assert_eq!(back.em.as_slice(), state.em.as_slice());
    }

    /// A snapshot header for `nspecies` species, then one field header.
    fn hostile(nspecies: u32, ncells: u64, ncoeff: u64) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend(MAGIC.to_le_bytes());
        b.extend(VERSION.to_le_bytes());
        b.extend(0.0f64.to_le_bytes());
        b.extend(nspecies.to_le_bytes());
        b.extend(ncells.to_le_bytes());
        b.extend(ncoeff.to_le_bytes());
        b
    }

    fn error_kind(bytes: &[u8]) -> std::io::ErrorKind {
        read_state(bytes).expect_err("must be rejected").kind()
    }

    #[test]
    fn hostile_headers_are_typed_errors_not_aborts() {
        use std::io::ErrorKind::{InvalidData, UnexpectedEof};
        // 2^60 cells claimed, none sent: nothing is allocated up front.
        assert_eq!(error_kind(&hostile(1, 1 << 60, 1)), UnexpectedEof);
        // A size that cannot exist.
        assert_eq!(error_kind(&hostile(1, u64::MAX, 2)), InvalidData);
        assert_eq!(error_kind(&hostile(1, 1 << 61, 1)), InvalidData);
        // Four billion species promised, one empty field delivered.
        assert_eq!(error_kind(&hostile(u32::MAX, 0, 8)), UnexpectedEof);
        // From a file, whose length is known, a claim the file cannot back
        // is rejected before anything is read.
        let dir = std::env::temp_dir().join("dg_diag_snap_hostile");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("hostile.vdg");
        for bytes in [hostile(1, 1 << 60, 1), hostile(u32::MAX, 0, 8)] {
            std::fs::write(&p, bytes).unwrap();
            assert_eq!(load(&p).expect_err("must be rejected").kind(), InvalidData);
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let mut buf = Vec::new();
        write_state(&random_state(3), 0.25, &mut buf).unwrap();
        for len in 0..buf.len() {
            assert_eq!(
                error_kind(&buf[..len]),
                std::io::ErrorKind::UnexpectedEof,
                "{len} bytes"
            );
            // With the length known (`load`), before reading.
            let known = read_within(&buf[..len], Some(len as u64));
            assert_eq!(
                known.expect_err("truncated").kind(),
                std::io::ErrorKind::InvalidData
            );
        }
        assert!(read_state(&buf[..]).is_ok());
        assert!(read_within(&buf[..], Some(buf.len() as u64)).is_ok());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dg_diag_snap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("state.vdg");
        let state = random_state(7);
        save(&p, &state, 0.5).unwrap();
        let (back, t) = load(&p).unwrap();
        assert_eq!(t, 0.5);
        assert_eq!(back.em.as_slice(), state.em.as_slice());
    }

    #[test]
    fn save_is_atomic_and_overwrites_whole_files() {
        let dir = std::env::temp_dir().join("dg_diag_snap_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("ckpt_000004.vdg");
        // A longer stale file first: a torn in-place rewrite would leave
        // trailing bytes; the rename replaces the whole file.
        save(&p, &random_state(1), 1.0).unwrap();
        std::fs::write(dir.join("ckpt_000004.vdg.tmp"), b"torn half-write").unwrap();
        let state = random_state(2);
        save(&p, &state, 2.0).unwrap();
        let (back, t) = load(&p).unwrap();
        assert_eq!(t, 2.0);
        assert_eq!(back.em.as_slice(), state.em.as_slice());
        // No .tmp left behind by a completed save.
        assert!(!dir.join("ckpt_000004.vdg.tmp.tmp").exists());
    }

    #[test]
    fn latest_checkpoint_picks_max_step_and_ignores_noise() {
        let dir = std::env::temp_dir().join("dg_diag_snap_latest");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(latest_checkpoint(&dir, "ckpt").is_none());
        std::fs::create_dir_all(&dir).unwrap();
        for steps in [0usize, 12, 7] {
            save(
                dir.join(format!("ckpt_{steps:06}.vdg")),
                &random_state(steps as u64),
                steps as f64,
            )
            .unwrap();
        }
        // Noise: interrupted tmp, other stem, non-numeric stamp.
        std::fs::write(dir.join("ckpt_000099.vdg.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("other_000050.vdg"), b"x").unwrap();
        std::fs::write(dir.join("ckpt_latest.vdg"), b"x").unwrap();
        let (path, steps) = latest_checkpoint(&dir, "ckpt").unwrap();
        assert_eq!(steps, 12);
        assert_eq!(path, dir.join("ckpt_000012.vdg"));
        let (_, t) = load(&path).unwrap();
        assert_eq!(t, 12.0);
    }
}
