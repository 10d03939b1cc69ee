//! Host fingerprint and bandwidth ceiling.
//!
//! Every result carries the cores, ISA and last-level cache it was
//! measured on, plus the sustained memory bandwidth a STREAM-style
//! copy and triad reach on arrays at least four times the LLC. Bytes
//! are counted the STREAM way: copy moves 16 B per element, triad 24 B
//! (write-allocate traffic is not counted).

use crate::stats::median;
use em_json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Cache size assumed when CPUID reports no level-3 cache.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

pub struct Bandwidth {
    pub copy_gbps: f64,
    pub triad_gbps: f64,
    /// Bytes per array.
    pub array_bytes: u64,
}

pub struct Host {
    pub cores: usize,
    pub isa: &'static str,
    pub llc_bytes: u64,
    pub bw: Bandwidth,
}

impl Host {
    pub fn probe() -> Host {
        let (cores, llc_bytes) = (cores(), llc_bytes());
        Host {
            cores,
            isa: em_kernels::active_isa().name(),
            llc_bytes,
            bw: stream(4 * llc_bytes, cores),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cores", Json::Int(self.cores as i64)),
            ("isa", Json::str(self.isa)),
            ("llc_mib", Json::Num(self.llc_bytes as f64 / 1048576.0)),
            (
                "stream_array_mib",
                Json::Num(self.bw.array_bytes as f64 / 1048576.0),
            ),
            ("copy_gbps", Json::Num(self.bw.copy_gbps)),
            ("triad_gbps", Json::Num(self.bw.triad_gbps)),
        ])
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the level-3 cache the calling core sees, from the CPUID
/// deterministic cache parameters (leaf 4 on Intel, 0x8000_001D on AMD).
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    for leaf in [4, 0x8000_001d] {
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            if (r.eax >> 5) & 7 == 3 {
                let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
                let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                return ways * partitions * line * sets;
            }
        }
    }
    FALLBACK_LLC_BYTES
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> u64 {
    FALLBACK_LLC_BYTES
}

/// Copy (`c = a`) and triad (`a = b + s*c`) over `threads` threads,
/// each array `array_bytes` long; the median of the timed passes after
/// one untimed pass that faults the pages in.
fn stream(array_bytes: u64, threads: usize) -> Bandwidth {
    const PASSES: usize = 5;
    let n = (array_bytes / 8) as usize;
    let mut a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    let chunk = n.div_ceil(threads.max(1));

    let copy = |dst: &mut [f64], src: &[f64]| {
        std::thread::scope(|s| {
            for (d, x) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(x));
            }
        });
    };
    let triad = |dst: &mut [f64], x: &[f64], y: &[f64], scalar: f64| {
        std::thread::scope(|s| {
            for ((d, x), y) in dst
                .chunks_mut(chunk)
                .zip(x.chunks(chunk))
                .zip(y.chunks(chunk))
            {
                s.spawn(move || {
                    for ((d, x), y) in d.iter_mut().zip(x).zip(y) {
                        *d = x + scalar * y;
                    }
                });
            }
        });
    };

    let mut copy_gbps = Vec::new();
    let mut triad_gbps = Vec::new();
    for pass in 0..=PASSES {
        let t = Instant::now();
        copy(&mut c, &a);
        let secs = t.elapsed().as_secs_f64();
        black_box(&c);
        let t2 = Instant::now();
        triad(&mut a, &b, &c, black_box(3.0));
        let secs2 = t2.elapsed().as_secs_f64();
        black_box(&a);
        if pass > 0 {
            copy_gbps.push(16.0 * n as f64 / secs / 1e9);
            triad_gbps.push(24.0 * n as f64 / secs2 / 1e9);
        }
    }
    Bandwidth {
        copy_gbps: median(&copy_gbps),
        triad_gbps: median(&triad_gbps),
        array_bytes: (n * 8) as u64,
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    _times: [i64; 4],
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Cap glibc's malloc arenas at one per core, as `MALLOC_ARENA_MAX`
/// would. Uncapped, glibc opens up to eight per core, one for each
/// thread that meets a locked arena, and keeps their freed pages: which
/// threads got an arena of their own is timing, and moved the peak
/// resident set of the same `dist-sweep` run between 129 and 179 MB.
/// Call before any thread starts.
pub fn cap_malloc_arenas() {
    const M_ARENA_MAX: i32 = -8;
    let cores = i32::try_from(cores()).unwrap_or(i32::MAX);
    // SAFETY: mallopt takes two integers and only changes allocator
    // settings; this runs on the main thread before any other starts.
    unsafe { mallopt(M_ARENA_MAX, cores) };
}

/// Hand the free pages of every arena back to the kernel (glibc
/// `malloc_trim`), so that each repetition starts from the heap a fresh
/// process would have. Without it the pages an earlier repetition freed
/// stay resident, and the peak grew by ~10 MB with every `dist-sweep`
/// repetition: a faster program, fitting more repetitions into a run,
/// would have read as using more memory.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases memory
    // the allocator holds free; any thread may call it at any time.
    unsafe { malloc_trim(0) };
}

/// Peak resident set of this process so far (`ru_maxrss`), MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, the only thing getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}
