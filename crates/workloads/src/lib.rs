//! Synthetic benchmark suites for the PowerChop reproduction.
//!
//! The paper evaluates PowerChop on SPEC CPU2006 and PARSEC (server core)
//! and MobileBench R-GWB (mobile core) — 29 applications in total. Those
//! suites are proprietary and run on full OS stacks, so this crate provides
//! 29 synthetic guest-ISA programs, one per paper application, each
//! engineered to exhibit the phase-level unit-criticality behaviour the
//! paper reports for its namesake (see `DESIGN.md` for the substitution
//! argument and [`kernels`] for the building blocks).
//!
//! # Examples
//!
//! ```
//! use powerchop_workloads::{all, by_name, Scale, Suite};
//!
//! assert_eq!(all().len(), 29);
//! let gobmk = by_name("gobmk").expect("known benchmark");
//! assert_eq!(gobmk.suite(), Suite::SpecInt);
//! let program = gobmk.program(Scale(0.01)); // shortened for tests
//! assert!(program.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod kernels;
pub mod mobile;
pub mod parsec;
pub mod spec_fp;
pub mod spec_int;
pub mod stats;

use powerchop_gisa::Program;
use powerchop_uarch::config::CoreKind;

pub use compose::Scale;

/// The benchmark suites of the paper's evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 integer (server core).
    SpecInt,
    /// SPEC CPU2006 floating point (server core).
    SpecFp,
    /// PARSEC (server core).
    Parsec,
    /// MobileBench Realistic General Web Browsing (mobile core).
    MobileBench,
}

impl Suite {
    /// All suites, in the paper's reporting order.
    pub const ALL: [Suite; 4] = [
        Suite::SpecInt,
        Suite::SpecFp,
        Suite::Parsec,
        Suite::MobileBench,
    ];

    /// The core design point this suite is evaluated on (paper Table I).
    #[must_use]
    pub fn core_kind(self) -> CoreKind {
        match self {
            Suite::MobileBench => CoreKind::Mobile,
            _ => CoreKind::Server,
        }
    }

    /// Parses a suite name in its external spelling (the CLI's and the
    /// serve protocol's, aliases included). Returns `None` for unknown
    /// names; each caller words its own error.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Suite> {
        Some(match name {
            "spec-int" | "specint" => Suite::SpecInt,
            "spec-fp" | "specfp" => Suite::SpecFp,
            "parsec" => Suite::Parsec,
            "mobile" | "mobilebench" => Suite::MobileBench,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::SpecInt => f.write_str("SPEC-INT"),
            Suite::SpecFp => f.write_str("SPEC-FP"),
            Suite::Parsec => f.write_str("PARSEC"),
            Suite::MobileBench => f.write_str("MobileBench"),
        }
    }
}

/// A named benchmark: metadata plus a program generator.
#[derive(Debug, Clone, Copy)]
pub struct Benchmark {
    name: &'static str,
    suite: Suite,
    build: fn(Scale) -> Program,
}

impl Benchmark {
    /// The benchmark's name (matches the paper's figures).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The suite the benchmark belongs to.
    #[must_use]
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// Which core design point this benchmark runs on.
    #[must_use]
    pub fn core_kind(&self) -> CoreKind {
        self.suite.core_kind()
    }

    /// Builds the guest program at the given scale.
    #[must_use]
    pub fn program(&self, scale: Scale) -> Program {
        (self.build)(scale)
    }
}

/// The full 29-application roster of the paper's evaluation.
static BENCHMARKS: [Benchmark; 29] = [
    Benchmark {
        name: "perlbench",
        suite: Suite::SpecInt,
        build: spec_int::perlbench,
    },
    Benchmark {
        name: "bzip2",
        suite: Suite::SpecInt,
        build: spec_int::bzip2,
    },
    Benchmark {
        name: "gcc",
        suite: Suite::SpecInt,
        build: spec_int::gcc,
    },
    Benchmark {
        name: "mcf",
        suite: Suite::SpecInt,
        build: spec_int::mcf,
    },
    Benchmark {
        name: "gobmk",
        suite: Suite::SpecInt,
        build: spec_int::gobmk,
    },
    Benchmark {
        name: "hmmer",
        suite: Suite::SpecInt,
        build: spec_int::hmmer,
    },
    Benchmark {
        name: "sjeng",
        suite: Suite::SpecInt,
        build: spec_int::sjeng,
    },
    Benchmark {
        name: "libquantum",
        suite: Suite::SpecInt,
        build: spec_int::libquantum,
    },
    Benchmark {
        name: "h264ref",
        suite: Suite::SpecInt,
        build: spec_int::h264ref,
    },
    Benchmark {
        name: "astar",
        suite: Suite::SpecInt,
        build: spec_int::astar,
    },
    Benchmark {
        name: "namd",
        suite: Suite::SpecFp,
        build: spec_fp::namd,
    },
    Benchmark {
        name: "soplex",
        suite: Suite::SpecFp,
        build: spec_fp::soplex,
    },
    Benchmark {
        name: "lbm",
        suite: Suite::SpecFp,
        build: spec_fp::lbm,
    },
    Benchmark {
        name: "milc",
        suite: Suite::SpecFp,
        build: spec_fp::milc,
    },
    Benchmark {
        name: "gems",
        suite: Suite::SpecFp,
        build: spec_fp::gems,
    },
    Benchmark {
        name: "sphinx3",
        suite: Suite::SpecFp,
        build: spec_fp::sphinx3,
    },
    Benchmark {
        name: "povray",
        suite: Suite::SpecFp,
        build: spec_fp::povray,
    },
    Benchmark {
        name: "calculix",
        suite: Suite::SpecFp,
        build: spec_fp::calculix,
    },
    Benchmark {
        name: "blackscholes",
        suite: Suite::Parsec,
        build: parsec::blackscholes,
    },
    Benchmark {
        name: "canneal",
        suite: Suite::Parsec,
        build: parsec::canneal,
    },
    Benchmark {
        name: "dedup",
        suite: Suite::Parsec,
        build: parsec::dedup,
    },
    Benchmark {
        name: "fluidanimate",
        suite: Suite::Parsec,
        build: parsec::fluidanimate,
    },
    Benchmark {
        name: "streamcluster",
        suite: Suite::Parsec,
        build: parsec::streamcluster,
    },
    Benchmark {
        name: "swaptions",
        suite: Suite::Parsec,
        build: parsec::swaptions,
    },
    Benchmark {
        name: "msn",
        suite: Suite::MobileBench,
        build: mobile::msn,
    },
    Benchmark {
        name: "amazon",
        suite: Suite::MobileBench,
        build: mobile::amazon,
    },
    Benchmark {
        name: "google",
        suite: Suite::MobileBench,
        build: mobile::google,
    },
    Benchmark {
        name: "bbc",
        suite: Suite::MobileBench,
        build: mobile::bbc,
    },
    Benchmark {
        name: "ebay",
        suite: Suite::MobileBench,
        build: mobile::ebay,
    },
];

/// All 29 benchmarks in suite order.
#[must_use]
pub fn all() -> &'static [Benchmark] {
    &BENCHMARKS
}

/// Looks a benchmark up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Benchmark> {
    BENCHMARKS.iter().find(|b| b.name == name)
}

/// The benchmarks of one suite.
pub fn suite(suite: Suite) -> impl Iterator<Item = &'static Benchmark> {
    BENCHMARKS.iter().filter(move |b| b.suite == suite)
}

/// The server-core roster (SPEC + PARSEC).
pub fn server() -> impl Iterator<Item = &'static Benchmark> {
    BENCHMARKS
        .iter()
        .filter(|b| b.core_kind() == CoreKind::Server)
}

/// The mobile-core roster (MobileBench).
pub fn mobile_suite() -> impl Iterator<Item = &'static Benchmark> {
    BENCHMARKS
        .iter()
        .filter(|b| b.core_kind() == CoreKind::Mobile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_matches_paper_counts() {
        assert_eq!(all().len(), 29, "paper evaluates 29 applications");
        assert_eq!(suite(Suite::SpecInt).count(), 10);
        assert_eq!(suite(Suite::SpecFp).count(), 8);
        assert_eq!(suite(Suite::Parsec).count(), 6);
        assert_eq!(suite(Suite::MobileBench).count(), 5);
        assert_eq!(server().count(), 24);
        assert_eq!(mobile_suite().count(), 5);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 29);
    }

    #[test]
    fn by_name_finds_every_benchmark() {
        for b in all() {
            assert_eq!(by_name(b.name()).unwrap().name(), b.name());
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn suite_names_and_aliases_parse() {
        let names = [
            ("spec-int", Suite::SpecInt),
            ("specint", Suite::SpecInt),
            ("spec-fp", Suite::SpecFp),
            ("specfp", Suite::SpecFp),
            ("parsec", Suite::Parsec),
            ("mobile", Suite::MobileBench),
            ("mobilebench", Suite::MobileBench),
        ];
        for (name, suite) in names {
            assert_eq!(Suite::by_name(name), Some(suite), "{name}");
        }
        for suite in Suite::ALL {
            assert!(names.iter().any(|&(_, s)| s == suite), "{suite} has a name");
        }
        for unknown in ["", "quake", "SPEC-INT", "spec int"] {
            assert_eq!(Suite::by_name(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn mobile_benchmarks_use_the_mobile_core() {
        for b in suite(Suite::MobileBench) {
            assert_eq!(b.core_kind(), CoreKind::Mobile);
        }
        for b in suite(Suite::SpecFp) {
            assert_eq!(b.core_kind(), CoreKind::Server);
        }
    }

    #[test]
    fn every_benchmark_builds_and_terminates_when_scaled_down() {
        use powerchop_gisa::{Cpu, Memory};
        for b in all() {
            let p = b.program(Scale(0.002));
            let mut cpu = Cpu::new(&p);
            let mut mem = Memory::new();
            p.init_memory(&mut mem);
            let mut steps = 0u64;
            while !cpu.halted() {
                cpu.step(&p, &mut mem)
                    .unwrap_or_else(|e| panic!("{} faulted: {e}", b.name()));
                steps += 1;
                assert!(steps < 20_000_000, "{} did not terminate", b.name());
            }
            assert!(steps > 100, "{} too short even scaled", b.name());
        }
    }

    #[test]
    fn scale_controls_dynamic_length() {
        use powerchop_gisa::{Cpu, Memory};
        let b = by_name("hmmer").unwrap();
        let run = |scale: f64| {
            let p = b.program(Scale(scale));
            let mut cpu = Cpu::new(&p);
            let mut mem = Memory::new();
            while !cpu.halted() {
                cpu.step(&p, &mut mem).unwrap();
            }
            cpu.retired()
        };
        let short = run(0.001);
        let longer = run(0.01);
        assert!(longer > 5 * short);
    }
}
