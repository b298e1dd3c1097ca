//! Differential test of [`CoreModel`]'s memory path against a test-only
//! reference built from the crate's public parts: a fresh `Bpu`, three
//! `Cache`s and a `Vpu`. The reference walks every line of every access,
//! and of every lane of an emulated vector op, through `Cache::access`,
//! with no shortcut for a line the previous access touched. Both are
//! driven with the same seeded scalar accesses, vector ops with the VPU
//! on and off, MLC way-state changes, drowsy sweeps and an in-place
//! snapshot rewind, on the server and mobile design points; counters,
//! cycles, the MLC's awake fraction and every snapshot byte must agree.

use powerchop_checkpoint::{ByteReader, ByteWriter, CheckpointError};
use powerchop_faults::check::cases;
use powerchop_faults::SimRng;
use powerchop_gisa::{MemAccess, VLEN};
use powerchop_uarch::{Bpu, Cache, CoreConfig, CoreModel, CoreStats, MlcWayState, Vpu};

/// The core's memory path with every line walked through the caches.
struct RefCore {
    issue_width: u64,
    mlc_hit_latency: u64,
    llc_hit_latency: u64,
    mem_latency: u64,
    line_bytes: u64,
    bpu: Bpu,
    l1d: Cache,
    mlc: Cache,
    llc: Cache,
    vpu: Vpu,
    mlc_state: MlcWayState,
    slots: u64,
    stall_cycles: u64,
    stats: CoreStats,
}

impl RefCore {
    fn new(cfg: &CoreConfig) -> Self {
        RefCore {
            issue_width: u64::from(cfg.issue_width),
            mlc_hit_latency: u64::from(cfg.mlc.hit_latency),
            llc_hit_latency: u64::from(cfg.llc.hit_latency),
            mem_latency: u64::from(cfg.mem_latency),
            line_bytes: u64::from(cfg.l1d.line_bytes),
            bpu: Bpu::new(&cfg.bpu),
            l1d: Cache::new(&cfg.l1d),
            mlc: Cache::new(&cfg.mlc),
            llc: Cache::new(&cfg.llc),
            vpu: Vpu::with_emulation_overhead(cfg.simd_lanes, cfg.vpu_emulation_overhead_slots),
            mlc_state: MlcWayState::Full,
            slots: 0,
            stall_cycles: 0,
            stats: CoreStats::default(),
        }
    }

    fn cycles(&self) -> u64 {
        self.slots.div_ceil(self.issue_width) + self.stall_cycles
    }

    fn count_mem_dir(&mut self, is_store: bool) {
        if is_store {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
    }

    fn scalar_access(&mut self, mem: MemAccess) {
        self.count_mem_dir(mem.is_store);
        self.access_lines(mem.addr, u64::from(mem.size), mem.is_store);
    }

    fn vector_op(&mut self, mem: Option<MemAccess>) {
        self.stats.vec_ops += 1;
        let slots = u64::from(self.vpu.issue_slots_for_vector_op());
        self.slots += slots.saturating_sub(1);
        let active = self.vpu.active();
        if active {
            self.stats.simd_committed += 1;
        } else {
            self.stats.vec_emulated += 1;
        }
        let Some(mem) = mem else { return };
        self.count_mem_dir(mem.is_store);
        if active {
            self.access_lines(mem.addr, u64::from(mem.size), mem.is_store);
        } else {
            for lane in 0..VLEN as u64 {
                self.access_lines(mem.addr.wrapping_add(8 * lane), 8, mem.is_store);
            }
        }
    }

    /// Walks `[addr, addr + size)` byte by byte, wrapping past the top of
    /// the address space, and accesses each line where a byte starts one.
    fn access_lines(&mut self, addr: u64, size: u64, is_store: bool) {
        let mut previous = None;
        for k in 0..size.max(1) {
            let line = addr.wrapping_add(k) / self.line_bytes;
            if previous != Some(line) {
                self.access_hierarchy(line * self.line_bytes, is_store);
                previous = Some(line);
            }
        }
    }

    fn access_hierarchy(&mut self, addr: u64, is_store: bool) {
        if self.l1d.access(addr, is_store).hit {
            self.stats.l1_hits += 1;
            return;
        }
        self.stats.mlc_accesses += 1;
        let mlc_out = self.mlc.access(addr, is_store);
        if mlc_out.writeback {
            self.stats.mlc_writebacks += 1;
        }
        if mlc_out.woke_drowsy {
            self.stats.mlc_drowsy_wakes += 1;
            self.stall_cycles += 1;
        }
        if mlc_out.hit {
            self.stats.mlc_hits += 1;
            self.stall_cycles += self.mlc_hit_latency;
            return;
        }
        self.stats.llc_accesses += 1;
        if self.llc.access(addr, is_store).hit {
            self.stats.llc_hits += 1;
            self.stall_cycles += self.llc_hit_latency;
        } else {
            self.stats.mem_accesses += 1;
            self.stall_cycles += self.llc_hit_latency + self.mem_latency;
        }
    }

    fn set_mlc_way_state(&mut self, state: MlcWayState) -> u64 {
        self.mlc_state = state;
        self.mlc.set_active_ways(state.active_ways(self.mlc.ways()))
    }

    fn snapshot_to(&self, w: &mut ByteWriter) {
        self.bpu.snapshot_to(w);
        self.l1d.snapshot_to(w);
        self.mlc.snapshot_to(w);
        self.llc.snapshot_to(w);
        self.vpu.snapshot_to(w);
        w.put_u8(self.mlc_state.policy_bits());
        w.put_u64(self.slots);
        w.put_u64(self.stall_cycles);
        self.stats.snapshot_to(w);
    }

    fn restore_from(&mut self, r: &mut ByteReader<'_>) -> Result<(), CheckpointError> {
        self.bpu.restore_from(r)?;
        self.l1d.restore_from(r)?;
        self.mlc.restore_from(r)?;
        self.llc.restore_from(r)?;
        self.vpu.restore_from(r)?;
        self.mlc_state = MlcWayState::from_policy_bits(r.take_u8()?);
        self.slots = r.take_u64()?;
        self.stall_cycles = r.take_u64()?;
        self.stats = CoreStats::restore_from(r)?;
        Ok(())
    }
}

fn snapshot_of(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write(&mut w);
    w.into_bytes()
}

/// Asserts the cheap observables agree.
fn assert_same(core: &CoreModel, reference: &RefCore, what: &str) {
    assert_eq!(core.stats(), reference.stats, "{what}: stats");
    assert_eq!(core.cycles(), reference.cycles(), "{what}: cycles");
    assert_eq!(
        core.mlc_awake_fraction().to_bits(),
        reference.mlc.awake_fraction().to_bits(),
        "{what}: MLC awake fraction"
    );
}

/// Asserts the full snapshots agree, naming the first differing byte
/// rather than printing megabytes of both.
fn assert_same_bytes(core: &CoreModel, reference: &RefCore, what: &str) {
    let (got, want) = (
        snapshot_of(|w| core.snapshot_to(w)),
        snapshot_of(|w| reference.snapshot_to(w)),
    );
    let first = got.iter().zip(&want).position(|(a, b)| a != b);
    assert!(
        got == want,
        "{what}: snapshot bytes differ ({} vs {} bytes, first difference at {first:?})",
        got.len(),
        want.len()
    );
}

/// Where the next access goes: mostly a cursor that creeps forward by
/// less than two lines (so accesses and lanes revisit the previous line
/// and straddle into the next), else the last bytes of a line, the top
/// of the address space, or anywhere in a working set four times the
/// L1D's capacity, aligned or not.
struct Addresses {
    cursor: u64,
    line: u64,
    lines: u64,
}

impl Addresses {
    fn next(&mut self, rng: &mut SimRng) -> u64 {
        match rng.gen_range(10) {
            0..=4 => {
                self.cursor = self.cursor.wrapping_add(rng.gen_range(2 * self.line));
                self.cursor
            }
            5 => (self.cursor | (self.line - 1)) - rng.gen_range(8),
            6 => u64::MAX - rng.gen_range(2 * self.line),
            7 => rng.gen_range(self.lines) * self.line,
            _ => {
                self.cursor = rng.gen_range(self.lines * self.line);
                self.cursor
            }
        }
    }
}

/// One seeded operation on both cores.
fn step(core: &mut CoreModel, reference: &mut RefCore, rng: &mut SimRng, at: &mut Addresses) {
    match rng.gen_range(100) {
        0..=1 => {
            let on = rng.gen_bool(0.5);
            core.set_vpu_active(on);
            reference.vpu.set_active(on);
        }
        2 => {
            let state = [
                MlcWayState::One,
                MlcWayState::Quarter,
                MlcWayState::Half,
                MlcWayState::Full,
            ][rng.gen_range(4) as usize];
            assert_eq!(
                core.set_mlc_way_state(state),
                reference.set_mlc_way_state(state),
                "flushed lines"
            );
        }
        3 => assert_eq!(core.drowse_mlc(), reference.mlc.set_all_drowsy()),
        4..=39 => {
            let mem = (!rng.gen_bool(0.1)).then(|| MemAccess {
                addr: at.next(rng),
                size: 8 * VLEN as u32,
                is_store: rng.gen_bool(0.3),
            });
            core.vector_op(mem);
            reference.vector_op(mem);
        }
        _ => {
            let mem = MemAccess {
                addr: at.next(rng),
                size: 1 + rng.gen_range(8) as u32,
                is_store: rng.gen_bool(0.3),
            };
            core.scalar_access(mem);
            reference.scalar_access(mem);
        }
    }
}

#[test]
fn core_memory_path_matches_the_walk_every_line_reference() {
    for (name, cfg) in [
        ("server", CoreConfig::server()),
        ("mobile", CoreConfig::mobile()),
    ] {
        cases(&format!("core reference, {name}"), 6, |rng| {
            let mut core = CoreModel::new(&cfg);
            let mut reference = RefCore::new(&cfg);
            let line = u64::from(cfg.l1d.line_bytes);
            let lines = u64::from(cfg.l1d.sets() * cfg.l1d.ways) * 4;
            let mut at = Addresses {
                cursor: rng.gen_range(lines * line),
                line,
                lines,
            };
            let mut run =
                |core: &mut CoreModel, reference: &mut RefCore, steps: u64, phase: &str| {
                    for i in 0..steps {
                        step(core, reference, rng, &mut at);
                        assert_same(core, reference, &format!("{name}, {phase} step {i}"));
                    }
                    assert_same_bytes(core, reference, &format!("{name}, end of {phase}"));
                };
            run(&mut core, &mut reference, 1_500, "prefix");
            let checkpoint = snapshot_of(|w| core.snapshot_to(w));
            run(&mut core, &mut reference, 500, "after the snapshot");

            // The line touched just before the rewind is one the rewound
            // state has never seen, so only a fresh walk can charge it.
            let fresh = MemAccess {
                addr: (lines * line) << 4,
                size: 8,
                is_store: false,
            };
            core.scalar_access(fresh);
            reference.scalar_access(fresh);
            core.restore_from(&mut ByteReader::new(&checkpoint))
                .expect("a core restores its own snapshot in place");
            reference
                .restore_from(&mut ByteReader::new(&checkpoint))
                .expect("the reference restores the same snapshot");
            assert_same_bytes(&core, &reference, &format!("{name}, rewound"));
            core.scalar_access(fresh);
            reference.scalar_access(fresh);
            assert_same(&core, &reference, &format!("{name}, after the rewind"));
            run(&mut core, &mut reference, 1_000, "after the rewind");
        });
    }
}
