//! What the benchmark ran on, and the guard that pins what is measured.

use crate::json::Json;
use autosf_repro::kg_linalg::simd::{FORCE_SCALAR_ENV, POLICY_ENV};
use autosf_repro::kg_linalg::KernelPolicy;
use std::sync::OnceLock;

/// Every call that takes a policy gets this one. The search driver takes
/// none and resolves its own from the environment, which is why
/// [`refuse_pinned_env`] exists.
pub const POLICY: KernelPolicy = KernelPolicy::Exact;

/// Logical cores the process may use, as it was started: [`pin`] narrows
/// what `available_parallelism` reports afterwards.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Threads of the measured paths (search, training, ranking, the serve
/// engine's crew): half the cores, at least 1 and at most 4.
///
/// The other half is left to the host, and on the serve workload to the
/// load generator. On the shared 2-core host this was written on, threads
/// that keep both vCPUs busy and meet at barriers read 20 to 50 % slower
/// for a run at a time, because either vCPU losing its core or its share
/// of the memory system stalls both; one thread alone is hit less and in
/// shorter stretches, which the best window of a run steps around (README,
/// "How a number is taken"). So the numbers with a bound are taken at this
/// count, and scaling over more threads is a per-layer number taken at
/// [`par_threads`].
pub fn threads() -> usize {
    (nproc() / 2).clamp(1, 4)
}

/// Threads of the per-layer scaling numbers (`*.par_efficiency`,
/// `kg-train.crew_epoch_s`) and of the output checks that compare a
/// parallel result with the sequential one: `min(nproc, 4)`.
pub fn par_threads() -> usize {
    nproc().min(4)
}

/// The CPU set of a thread, as `sched_setaffinity(2)` takes it.
#[cfg(target_os = "linux")]
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, 1024 of them.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread; `set` is a live, writable
        // `CpuSet` and the size passed is its size, so the kernel writes
        // inside it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Restrict the calling thread, and every thread it starts from now
    /// on, to `set`. False when the kernel refuses.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: pid 0 is the calling thread; the kernel only reads
        // `size_of::<CpuSet>()` bytes from the live `set`.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// The CPU set the process was started with, and the part of it [`pin`]
/// chose.
#[cfg(target_os = "linux")]
static CPU_SETS: OnceLock<(affinity::CpuSet, affinity::CpuSet)> = OnceLock::new();

/// Restrict the calling thread, and every thread started after this call,
/// to the last [`threads`] of the CPUs it may use (a no-op where the
/// platform has no such call, or refuses; `pinned_cpus` in the result's
/// meta says which).
///
/// Call it from the main thread before any other thread exists. It makes
/// "half the cores" a fact the scheduler keeps: left free to place them,
/// the serve workload's generator and dispatcher share a core in one run
/// (round trip 0.30 ms on the host this was written on) and sit on two in
/// the next (0.41 ms, each wake-up crossing cores through the hypervisor),
/// and a run stays in the mode it started in.
pub fn pin() {
    let _ = nproc(); // before the set narrows
    #[cfg(target_os = "linux")]
    if let Some((all, chosen)) = plan() {
        if affinity::set(&chosen) {
            let _ = CPU_SETS.set((all, chosen));
        }
    }
}

/// The CPUs the calling thread may use, and the last [`threads`] of them.
#[cfg(target_os = "linux")]
fn plan() -> Option<(affinity::CpuSet, affinity::CpuSet)> {
    let all = affinity::get()?;
    let mut chosen: affinity::CpuSet = [0; 16];
    let allowed = (0..1024usize).rev().filter(|cpu| all[cpu / 64] >> (cpu % 64) & 1 == 1);
    for cpu in allowed.take(threads()) {
        chosen[cpu / 64] |= 1 << (cpu % 64);
    }
    Some((all, chosen))
}

/// The CPUs [`pin`] chose, or would choose from here (the `all` subcommand
/// leaves the pinning to its children); empty where it cannot pin.
fn pinned_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    if let Some((_, chosen)) = CPU_SETS.get().copied().or_else(plan) {
        return (0..1024usize).filter(|cpu| chosen[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
    }
    Vec::new()
}

/// Run `f` with the calling thread, and the threads `f` starts, on `cpus`;
/// afterwards the calling thread is back on `back`.
#[cfg(target_os = "linux")]
fn run_on<R>(cpus: &affinity::CpuSet, back: &affinity::CpuSet, f: impl FnOnce() -> R) -> R {
    affinity::set(cpus);
    let out = f();
    affinity::set(back);
    out
}

/// Run `f` on every CPU the process was started with, free of [`pin`]
/// until it returns. For the output checks and the per-layer numbers taken
/// at [`par_threads`].
pub fn on_all_cores<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_os = "linux")]
    if let Some((all, chosen)) = CPU_SETS.get() {
        return run_on(all, chosen, f);
    }
    f()
}

/// Run `f` with the calling thread alone on one CPU outside [`pin`]'s set
/// (on the pinned set when there is none outside). For a load generator:
/// it must not take time from the engine it drives, and a fixed place
/// keeps every wake-up between the two on the same path.
pub fn on_spare_core<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_os = "linux")]
    if let Some((all, chosen)) = CPU_SETS.get() {
        let spare =
            (0..1024usize).find(|cpu| (all[cpu / 64] & !chosen[cpu / 64]) >> (cpu % 64) & 1 == 1);
        if let Some(cpu) = spare {
            let mut one: affinity::CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            return run_on(&one, chosen, f);
        }
    }
    f()
}

/// The search driver reads these two variables to pick its kernels; with
/// either set the benchmark would time something other than what its
/// meta says.
pub fn refuse_pinned_env() -> Result<(), String> {
    for var in [FORCE_SCALAR_ENV, POLICY_ENV] {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set: unset it, the benchmark pins KernelPolicy::Exact"));
        }
    }
    Ok(())
}

/// `VmHWM` of this process in MB (0 where /proc is missing).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the largest cache Linux reports for cpu0, in bytes.
pub fn llc_bytes() -> Option<usize> {
    let mut best = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else { continue };
        let text = text.trim();
        let (digits, mul) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(Some(n * mul));
        }
    }
    best
}

fn cpu_features() -> Vec<Json> {
    let mut found = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                found.push(Json::str(name));
            }
        }
    }
    found
}

/// Host part of a result's meta.
pub fn meta() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads() as f64)),
        ("par_threads", Json::Num(par_threads() as f64)),
        ("pinned_cpus", Json::Arr(pinned_cpus().iter().map(|&c| Json::Num(c as f64)).collect())),
        ("cpu_features", Json::Arr(cpu_features())),
        ("kernel_policy", Json::str(POLICY.name())),
        ("resolved_kernel", Json::str(POLICY.resolve().name())),
        ("llc_bytes", llc_bytes().map_or(Json::Null, |b| Json::Num(b as f64))),
    ])
}
