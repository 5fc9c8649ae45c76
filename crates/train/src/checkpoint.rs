//! Trainer checkpoints: the whole run state in a small binary container.
//!
//! Layout (version 2): magic `PQTR`, version u32, word count u64, then
//! that many u64 LE words holding the trainer's run-state record (epoch,
//! chunk cursor and global step, the epoch's f64/count accumulators,
//! patience and best value, the last chunk's loss, per-epoch stats, the
//! epoch's visit order; f64s as bit patterns), the RNG's four
//! xoshiro256** state words and the Adam step count, then an
//! FNV-1a-64 checksum (u64 LE) over every preceding byte — followed by a
//! `preqr-nn` parameter blob (itself checksummed, see
//! `preqr_nn::serialize`) holding the model parameters, the Adam
//! first/second moments, and the best-validation snapshot when one
//! exists.
//!
//! The RNG is stored exactly, so saving never draws from it: a run with
//! checkpointing on, or one halted and resumed from its file, is
//! bit-identical to the same run with checkpointing off. Files of the
//! earlier version 1 layout are rejected.
//!
//! Writes go to a temporary sibling file and are renamed into place, so
//! a crash mid-write never destroys the previous checkpoint.

use std::io::{self, Read};
use std::path::{Path, PathBuf};

use preqr_nn::optim::Adam;
use preqr_nn::serialize::{apply_params, read_params, write_params};
use preqr_nn::{Matrix, Tensor};
use preqr_obs as obs;
use rand::rngs::StdRng;

use crate::stats::EpochStats;
use crate::trainer::{RunState, Totals};

const MAGIC: &[u8; 4] = b"PQTR";
const VERSION: u32 = 2;
/// Largest accepted word count (stats + order for any realistic run).
const MAX_WORDS: u64 = 1 << 28;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Where and how often the [`crate::Trainer`] checkpoints. The trainer
/// resumes from `path` whenever the file exists.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file path (overwritten atomically at each boundary).
    pub path: PathBuf,
    /// Checkpoint every this many optimizer steps (0 disables writing;
    /// resume still works if the file exists).
    pub every_steps: u64,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every_steps` steps, resuming from an
    /// existing file.
    pub fn new(path: impl Into<PathBuf>, every_steps: u64) -> Self {
        Self { path: path.into(), every_steps }
    }
}

fn encode_words(run: &RunState, rng: [u64; 4], adam_t: u64) -> Vec<u64> {
    let mut w = Vec::with_capacity(20 + run.stats.len() * 9 + run.order.len());
    w.extend([run.epoch as u64, run.pos as u64, run.step]);
    w.extend(rng);
    w.push(adam_t);
    let t = &run.totals;
    w.extend([t.loss.to_bits(), t.samples as u64, t.masked as u64, t.correct as u64]);
    w.push(run.epoch_start_step);
    w.push(run.patience as u64);
    w.push(u64::from(run.best.is_some()));
    w.push(run.best.as_ref().map_or(0.0, |(v, _)| *v).to_bits());
    w.push(run.last_chunk_loss.to_bits());
    w.push(run.stats.len() as u64);
    for st in &run.stats {
        w.push(st.epoch as u64);
        w.push(st.loss.to_bits());
        w.push(st.accuracy.to_bits());
        w.push(st.samples as u64);
        w.push(st.steps);
        w.push(st.masked as u64);
        w.push(st.correct as u64);
        w.push(u64::from(st.val.is_some()));
        w.push(st.val.unwrap_or(0.0).to_bits());
    }
    w.push(run.order.len() as u64);
    w.extend(run.order.iter().map(|&i| i as u64));
    w
}

struct WordReader<'a> {
    words: &'a [u64],
    at: usize,
}

impl WordReader<'_> {
    fn next(&mut self) -> io::Result<u64> {
        let w = self.words.get(self.at).copied().ok_or_else(|| bad_data("checkpoint truncated"));
        self.at += 1;
        w
    }

    fn next_usize(&mut self) -> io::Result<usize> {
        Ok(self.next()? as usize)
    }

    fn next_f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.next()?))
    }

    /// A length word, bounded by the payload so a corrupt count cannot
    /// allocate beyond it.
    fn next_len(&mut self, what: &str) -> io::Result<usize> {
        let len = self.next_usize()?;
        if len > self.words.len() {
            return Err(bad_data(format!("checkpoint {what} {len} exceeds payload")));
        }
        Ok(len)
    }
}

/// Decodes the state words: the run record without its best snapshot
/// (which lives in the parameter blob), the best value, the RNG state
/// and the Adam step count.
fn decode_words(words: &[u64]) -> io::Result<(RunState, Option<f64>, [u64; 4], u64)> {
    let mut r = WordReader { words, at: 0 };
    let epoch = r.next_usize()?;
    let pos = r.next_usize()?;
    let step = r.next()?;
    let rng = [r.next()?, r.next()?, r.next()?, r.next()?];
    let adam_t = r.next()?;
    let totals = Totals {
        loss: r.next_f64()?,
        samples: r.next_usize()?,
        masked: r.next_usize()?,
        correct: r.next_usize()?,
    };
    let epoch_start_step = r.next()?;
    let patience = r.next_usize()?;
    let has_best = r.next()? != 0;
    let best = r.next_f64()?;
    let last_chunk_loss = r.next_f64()?;
    let n_stats = r.next_len("stats count")?;
    let mut stats = Vec::with_capacity(n_stats);
    for _ in 0..n_stats {
        stats.push(EpochStats {
            epoch: r.next_usize()?,
            loss: r.next_f64()?,
            accuracy: r.next_f64()?,
            samples: r.next_usize()?,
            steps: r.next()?,
            masked: r.next_usize()?,
            correct: r.next_usize()?,
            val: {
                let has = r.next()? != 0;
                let bits = r.next()?;
                has.then(|| f64::from_bits(bits))
            },
        });
    }
    let n_order = r.next_len("order length")?;
    let order = (0..n_order).map(|_| r.next_usize()).collect::<io::Result<_>>()?;
    if r.at != words.len() {
        return Err(bad_data("checkpoint has trailing state words"));
    }
    let run = RunState {
        epoch,
        pos,
        step,
        totals,
        epoch_start_step,
        order,
        stats,
        patience,
        best: None,
        last_chunk_loss,
    };
    Ok((run, has_best.then_some(best), rng, adam_t))
}

/// Writes the run record, the RNG state, the optimizer and the model
/// parameters atomically (temp file + rename).
pub(crate) fn save(
    path: &Path,
    run: &RunState,
    rng: &StdRng,
    opt: &Adam,
    params: &[Tensor],
) -> io::Result<()> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let words = encode_words(run, rng.state(), opt.step_count());
    buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in &words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    let digest = fnv(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());

    let (m, v) = opt.moments();
    let mut named: Vec<(String, Tensor)> = Vec::new();
    for (i, p) in params.iter().enumerate() {
        named.push((format!("param.{i}"), p.clone()));
    }
    for (i, m) in m.iter().enumerate() {
        named.push((format!("adam.m.{i}"), Tensor::constant(m.clone())));
    }
    for (i, v) in v.iter().enumerate() {
        named.push((format!("adam.v.{i}"), Tensor::constant(v.clone())));
    }
    if let Some((_, snap)) = &run.best {
        for (i, b) in snap.iter().enumerate() {
            named.push((format!("best.{i}"), Tensor::constant(b.clone())));
        }
    }
    write_params(&mut buf, &named)?;

    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, path)?;
    obs::counter_add(obs::Metric::TrainCheckpoints, 1);
    Ok(())
}

/// Loads a checkpoint: restores the model parameters, the optimizer
/// (`opt` must manage `params`) and the RNG, and returns the run record.
///
/// # Errors
/// Any structural problem — bad magic, a version other than the current
/// one, checksum mismatch, truncation, parameter count/shape mismatch —
/// returns an `InvalidData` (or I/O) error without touching `params`,
/// `opt` or `rng`.
pub(crate) fn load(
    path: &Path,
    params: &[Tensor],
    opt: &mut Adam,
    rng: &mut StdRng,
) -> io::Result<RunState> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut header = [0u8; 16];
    f.read_exact(&mut header)?;
    if &header[..4] != MAGIC {
        return Err(bad_data("bad trainer checkpoint magic"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(bad_data(format!("unsupported trainer checkpoint version {version}")));
    }
    let n_words = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    if n_words > MAX_WORDS {
        return Err(bad_data(format!("checkpoint word count {n_words} exceeds {MAX_WORDS}")));
    }
    let mut body = vec![0u8; n_words as usize * 8];
    f.read_exact(&mut body)?;
    let mut digest = [0u8; 8];
    f.read_exact(&mut digest)?;
    let mut hashed = Vec::with_capacity(16 + body.len());
    hashed.extend_from_slice(&header);
    hashed.extend_from_slice(&body);
    if u64::from_le_bytes(digest) != fnv(&hashed) {
        return Err(bad_data("trainer checkpoint checksum mismatch"));
    }
    let words: Vec<u64> =
        body.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect();
    let (mut run, best, rng_state, adam_t) = decode_words(&words)?;

    let loaded = read_params(&mut f)?;
    // Every entry of `prefix.{i}`, one per parameter and shaped like it.
    let per_param = |prefix: &str| -> io::Result<Vec<Matrix>> {
        params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let name = format!("{prefix}.{i}");
                let m = loaded
                    .get(&name)
                    .ok_or_else(|| bad_data(format!("checkpoint is missing {name}")))?;
                if m.shape() != p.shape() {
                    return Err(bad_data(format!("checkpoint {name} shape mismatch")));
                }
                Ok(m.clone())
            })
            .collect()
    };
    let m = per_param("adam.m")?;
    let v = per_param("adam.v")?;
    if let Some(best) = best {
        run.best = Some((best, per_param("best")?));
    }
    let named: Vec<(String, Tensor)> =
        params.iter().enumerate().map(|(i, p)| (format!("param.{i}"), p.clone())).collect();
    // Everything validated; now mutate the model (all-or-nothing).
    apply_params(&named, &loaded).map_err(bad_data)?;
    opt.restore_state(adam_t, m, v);
    *rng = StdRng::from_state(rng_state);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use rand::{Rng as _, SeedableRng};

    use super::*;

    struct Sample {
        params: Vec<Tensor>,
        run: RunState,
        opt: Adam,
        rng: StdRng,
    }

    fn sample() -> Sample {
        let params = vec![
            Tensor::param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])),
            Tensor::param(Matrix::from_vec(1, 3, vec![-1.0, 0.5, 9.0])),
        ];
        let run = RunState {
            epoch: 3,
            pos: 2,
            step: 17,
            totals: Totals { loss: 1.25, samples: 40, masked: 7, correct: 5 },
            epoch_start_step: 15,
            order: vec![2, 0, 1],
            stats: vec![EpochStats {
                epoch: 0,
                loss: 3.5,
                accuracy: 0.5,
                samples: 20,
                steps: 5,
                masked: 4,
                correct: 2,
                val: Some(4.0),
            }],
            patience: 1,
            best: Some((2.5, params.iter().map(Tensor::value_clone).collect())),
            last_chunk_loss: 0.75,
        };
        let mut opt = Adam::new(params.clone(), 1e-3);
        let full = |x| params.iter().map(|p| Matrix::full(p.shape().0, p.shape().1, x)).collect();
        opt.restore_state(17, full(0.1), full(0.2));
        let mut rng = StdRng::seed_from_u64(5);
        rng.next_u64();
        Sample { params, run, opt, rng }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("preqr-train-{name}-{}.pqtr", std::process::id()))
    }

    #[test]
    fn round_trip_restores_everything() {
        let s = sample();
        let path = temp_path("ckpt-roundtrip");
        save(&path, &s.run, &s.rng, &s.opt, &s.params).unwrap();
        // Perturb the live state; load must restore all of it.
        s.params[0].set_value(Matrix::zeros(2, 2));
        let mut opt = Adam::new(s.params.clone(), 1e-3);
        let mut rng = StdRng::seed_from_u64(0);
        let got = load(&path, &s.params, &mut opt, &mut rng).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(s.params[0].value_clone().data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(got, s.run);
        assert_eq!(rng.state(), s.rng.state());
        assert_eq!(opt.step_count(), 17);
        assert_eq!(opt.moments().0[0].data(), s.opt.moments().0[0].data());
        assert_eq!(opt.moments().1[1].data(), s.opt.moments().1[1].data());
    }

    #[test]
    fn round_trips_a_run_without_best_snapshot() {
        let mut s = sample();
        s.run.best = None;
        s.run.order.clear();
        let path = temp_path("ckpt-nobest");
        save(&path, &s.run, &s.rng, &s.opt, &s.params).unwrap();
        let got = load(&path, &s.params, &mut s.opt, &mut s.rng).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got, s.run);
    }

    #[test]
    fn rejects_version_1() {
        let s = sample();
        let path = temp_path("ckpt-v1");
        save(&path, &s.run, &s.rng, &s.opt, &s.params).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let (mut opt, mut rng) = (Adam::new(s.params.clone(), 1e-3), StdRng::seed_from_u64(0));
        let err = load(&path, &s.params, &mut opt, &mut rng).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn rejects_corruption_without_touching_state() {
        let s = sample();
        let path = temp_path("ckpt-corrupt");
        save(&path, &s.run, &s.rng, &s.opt, &s.params).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let before = s.params[0].value_clone();
        let (mut opt, mut rng) = (Adam::new(s.params.clone(), 1e-3), StdRng::seed_from_u64(0));
        assert!(load(&path, &s.params, &mut opt, &mut rng).is_err());
        std::fs::remove_file(&path).ok();
        assert_eq!(s.params[0].value_clone().data(), before.data());
        assert_eq!(opt.step_count(), 0);
        assert_eq!(rng.state(), StdRng::seed_from_u64(0).state());
    }

    #[test]
    fn rejects_truncation() {
        let s = sample();
        let path = temp_path("ckpt-trunc");
        save(&path, &s.run, &s.rng, &s.opt, &s.params).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (mut opt, mut rng) = (Adam::new(s.params.clone(), 1e-3), StdRng::seed_from_u64(0));
        for len in [0, 3, 15, 40, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..len]).unwrap();
            assert!(load(&path, &s.params, &mut opt, &mut rng).is_err(), "prefix of {len} bytes");
        }
        std::fs::remove_file(&path).ok();
    }
}
