//! What the host is and how much of it the process used.

use powerchop_bt::JitEngine;
use powerchop_telemetry::export::JsonWriter;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set of this process so far (VmHWM), in MiB.
///
/// # Errors
///
/// Reports a failed `getrusage` call.
pub fn peak_rss_mib() -> Result<f64, String> {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, and RUSAGE_SELF is a valid `who`;
    // getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage failed with {rc}"));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// The provenance block every result carries: seed, host topology, JIT
/// backend and run length.
pub fn provenance(seed: u64, seconds: u64, trace: bool) -> String {
    let mut w = JsonWriter::object();
    w.field_u64("seed", seed);
    w.field_u64("nproc", nproc());
    w.field_str("arch", std::env::consts::ARCH);
    w.field_str("os", std::env::consts::OS);
    w.field_str(
        "jit_backend",
        if JitEngine::supported() {
            "native"
        } else {
            "stub"
        },
    );
    w.field_u64("run_seconds", seconds);
    w.field_bool("trace", trace);
    w.finish()
}
