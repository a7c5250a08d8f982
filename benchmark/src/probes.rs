//! Kernel probes for the traced run: the machine's two ceilings, measured
//! in this process, and the repo's public kernels at the shapes the
//! workloads use. All single-threaded, so a kernel's rate and the ceiling
//! it is stated against are like for like. Bytes are computed from array
//! sizes (they ignore cache misses) and are labelled `computed`.

use crate::host::POLICY;
use autosf_repro::kg_linalg::{gemm, vecops, Mat, SeededRng};
use std::hint::black_box;
use std::time::Instant;

/// Seconds per call of `f` in the fastest sample (see
/// `stats::best_window` for why the fastest). Calls are grouped so that
/// one sample lasts at least a millisecond, and samples are taken for
/// about `budget_s` (at least five).
pub fn best_call_s<R>(budget_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let per_sample = ((1e-3 / once).ceil() as usize).clamp(1, 1 << 20);
    let n_samples = ((budget_s / (once * per_sample as f64)) as usize).clamp(5, 101);
    let samples = (0..n_samples).map(|_| {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            black_box(f());
        }
        t0.elapsed().as_secs_f64() / per_sample as f64
    });
    samples.fold(f64::INFINITY, f64::min)
}

/// Fastest seconds per call of `f` and of `g` over `rounds`, called
/// alternately so that drift in the machine's speed lands on both alike.
/// For calls long enough (milliseconds) to be timed one at a time.
pub fn best_pair_s(rounds: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    let time = |h: &mut dyn FnMut()| {
        let t0 = Instant::now();
        h();
        t0.elapsed().as_secs_f64()
    };
    // the first round warms caches and faults the buffers in
    let (mut best_f, mut best_g) = (time(&mut f), time(&mut g));
    for _ in 0..rounds {
        best_f = best_f.min(time(&mut f));
        best_g = best_g.min(time(&mut g));
    }
    (best_f, best_g)
}

/// A table of `rows × dim` standard-normal floats.
pub fn random_table(rows: usize, dim: usize, seed: u64) -> Mat {
    let mut data = vec![0.0f32; rows * dim];
    SeededRng::new(seed).fill_normal(1.0, &mut data);
    Mat::from_vec(rows, dim, data)
}

pub struct Triad {
    pub gbps: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: usize,
}

/// STREAM-style triad `a[i] = b[i] + s·c[i]` on one thread. Each array is
/// four times the last-level cache Linux reports (64 MiB each when it
/// reports none), capped so the three arrays stay under a quarter of the
/// memory that is free; the result carries the size used, so a reader can
/// see when the cap applied. Counted traffic is 3 × array bytes per pass
/// (the write-allocate read of `a` is not counted, as in STREAM).
pub fn triad() -> Triad {
    let want = crate::host::llc_bytes().map_or(64 << 20, |llc| 4 * llc);
    let cap = mem_available_bytes().map_or(want, |free| free / 12);
    let n = want.min(cap) / 4;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let s = black_box(3.0f32);
    let mut pass = || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(a[n / 2]);
    };
    pass(); // first touch of `a`
    let secs = (0..3).map(|_| {
        let t0 = Instant::now();
        pass();
        t0.elapsed().as_secs_f64()
    });
    let bytes = 3.0 * (n * 4) as f64;
    Triad { gbps: bytes / secs.fold(f64::INFINITY, f64::min) / 1e9, array_bytes: n * 4 }
}

fn mem_available_bytes() -> Option<usize> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb = meminfo.lines().find_map(|l| l.strip_prefix("MemAvailable:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<usize>().ok().map(|kb| kb * 1024)
}

/// Peak single-thread f32 rate of a register-resident multiply-add loop,
/// in GFLOP/s (a fused multiply-add counts as two operations). Uses the
/// 256-bit FMA units where the CPU has them, the widest the repo's kernels
/// use; elsewhere a scalar loop the compiler may vectorise.
pub fn fma_peak_gflops() -> f64 {
    const ITERS: u64 = 2_000_000;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // 12 chains × 8 lanes × 2 operations per iteration
        let flop = ITERS as f64 * 12.0 * 8.0 * 2.0;
        // SAFETY: `fma_chains_avx2` requires AVX2 and FMA, both detected
        // on this CPU by the condition above.
        let secs = best_call_s(0.1, || unsafe { fma_chains_avx2(ITERS) });
        return flop / secs / 1e9;
    }
    let flop = ITERS as f64 * 8.0 * 2.0;
    let secs = best_call_s(0.1, || {
        let (m, a) = (black_box(0.999_999f32), black_box(1e-6f32));
        let mut acc = [1.0f32; 8];
        for _ in 0..ITERS {
            for x in &mut acc {
                *x = *x * m + a;
            }
        }
        acc.iter().sum::<f32>()
    });
    flop / secs / 1e9
}

/// Twelve independent 8-lane FMA chains: enough to cover the latency of
/// two FMA ports, few enough to stay in the sixteen vector registers.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::{_mm256_add_ps, _mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let m = _mm256_set1_ps(black_box(0.999_999f32));
    let a = _mm256_set1_ps(black_box(1e-6f32));
    let mut acc = [_mm256_set1_ps(1.0); 12];
    for _ in 0..iters {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, m, a);
        }
    }
    let mut sum = acc[0];
    for x in &acc[1..] {
        sum = _mm256_add_ps(sum, *x);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` holds eight f32, the 32 bytes the unaligned store writes.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), sum) };
    lanes.iter().sum()
}

pub struct GemmNt {
    /// Seconds per call, fastest sample.
    pub secs: f64,
    pub gflops: f64,
    /// Table + query block read once, score block written once.
    pub computed_bytes: f64,
}

impl GemmNt {
    /// An `m`-row block against an `n × k` table in `secs` per call.
    pub fn of(m: usize, n: usize, k: usize, secs: f64) -> GemmNt {
        GemmNt {
            secs,
            gflops: 2.0 * (m * n * k) as f64 / secs / 1e9,
            computed_bytes: 4.0 * (n * k + m * k + m * n) as f64,
        }
    }
}

/// `gemm_nt_with(Exact)`: an `m`-row query block against `table`.
pub fn gemm_nt(table: &Mat, m: usize, budget_s: f64) -> GemmNt {
    let (n, k) = (table.rows(), table.cols());
    let a = random_table(m, k, 11);
    let mut out = vec![0.0f32; m * n];
    let secs = best_call_s(budget_s, || {
        gemm::gemm_nt_with(POLICY, a.as_slice(), m, k, table, &mut out);
        out[0]
    });
    GemmNt::of(m, n, k, secs)
}

/// `gemm_acc_t_with(Exact)`: `m` coefficient rows against `table`; returns
/// (seconds per call, GFLOP/s).
pub fn gemm_acc_t(table: &Mat, m: usize, budget_s: f64) -> (f64, f64) {
    let (n, k) = (table.rows(), table.cols());
    let s = random_table(m, n, 12);
    let mut out = vec![0.0f32; m * k];
    let secs = best_call_s(budget_s, || {
        gemm::gemm_acc_t_with(POLICY, s.as_slice(), m, table, &mut out);
        out[0]
    });
    (secs, 2.0 * (m * n * k) as f64 / secs / 1e9)
}

/// `count_cmp` over one score row of `n` floats; returns (seconds per
/// row, computed GB/s).
pub fn count_cmp(n: usize, budget_s: f64) -> (f64, f64) {
    let row = random_table(1, n, 13);
    let secs = best_call_s(budget_s, || vecops::count_cmp(row.as_slice(), black_box(0.5)));
    (secs, 4.0 * n as f64 / secs / 1e9)
}
