//! Component micro-benchmarks: simulator building blocks in isolation
//! (useful for tracking simulation throughput as the code evolves),
//! timed with the in-tree [`smtx_bench::micro`] harness.
//!
//! `bench_step_cycle` isolates `Machine::step_cycle` — the hot loop the
//! fast-hash/scratch-buffer optimizations target.

use std::collections::BTreeMap;
use std::sync::Mutex;

use smtx_bench::micro::bench;
use smtx_branch::BranchUnit;
use smtx_core::dyninst::{DynInst, FrontEndInst, SrcState};
use smtx_core::window::Window;
use smtx_core::{Checkpoint, ExnMechanism, Machine, MachineConfig};
use smtx_isa::{Inst, Op};
use smtx_mem::{MemorySystem, Tlb};
use smtx_util::{FastHashMap, ShardMap};
use smtx_workloads::{kernel_reference, load_kernel, Kernel};

fn cache_hierarchy() {
    bench("mem/hierarchy_stream", || {
        let mut m = MemorySystem::paper_baseline();
        let mut sum = 0u64;
        for i in 0..10_000u64 {
            sum += m.access_data((i * 72) % (1 << 22), i);
        }
        sum
    });
}

fn tlb_ops() {
    bench("mem/tlb_lookup_insert", || {
        let mut tlb = Tlb::new(64);
        let mut hits = 0u64;
        for i in 0..10_000u64 {
            let vpn = (i * 7) % 96;
            if tlb.lookup(1, vpn).is_some() {
                hits += 1;
            } else {
                tlb.insert(1, vpn, vpn << 13, None);
            }
        }
        hits
    });
}

fn predictors() {
    bench("branch/unit_predict_update", || {
        let mut bu = BranchUnit::paper_baseline();
        let mut correct = 0u64;
        for i in 0..10_000u64 {
            let pc = 0x1000 + (i % 37) * 4;
            let outcome = (i / 3) % 2 == 0;
            let (p, h) = bu.predict_cond(pc);
            bu.update_cond(pc, h, outcome);
            if p == outcome {
                correct += 1;
            }
        }
        correct
    });
}

fn interpreter_throughput() {
    bench("core/interpreter_50k_insts", || {
        let mut world = kernel_reference(Kernel::Murphi, 42);
        world.run(50_000);
        world.interp.dtlb_misses()
    });
}

fn pipeline_throughput() {
    bench("core/pipeline_20k_insts", || {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
        let mut m = Machine::new(config);
        load_kernel(&mut m, 0, Kernel::Murphi, 42);
        m.set_budget(0, 20_000);
        m.run(u64::MAX).cycles
    });
}

/// Times `Machine::step_cycle` directly: 10k cycles of a warmed-up
/// multithreaded machine, the innermost loop everything else amortizes.
fn bench_step_cycle() {
    bench("core/step_cycle_10k", || {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
        let mut m = Machine::new(config);
        load_kernel(&mut m, 0, Kernel::Murphi, 42);
        m.set_budget(0, u64::MAX);
        for _ in 0..10_000 {
            m.step_cycle();
        }
        m.stats().cycles
    });
}

/// Checkpoint mechanics in isolation: one capture at a 20k-instruction
/// boundary, a restore into a fresh machine, and a four-boundary series
/// capture. `checkpoint/series_capture_4` against 4× `capture_20k` is the
/// measured win of sweeping the interpreter once instead of once per
/// boundary — the pre-pass the interval-parallel engine leans on.
/// `checkpoint/capture_1m_compress` fast-forwards the DTLB-heaviest kernel
/// by one million instructions from a machine loaded once, so its time in
/// ms is the interpreter's fast-forward cost in ns per instruction.
fn checkpoint_ops() {
    bench("checkpoint/capture_20k", || {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
        let mut m = Machine::new(config);
        load_kernel(&mut m, 0, Kernel::Murphi, 42);
        let ck = Checkpoint::capture(&m, 20_000).expect("capture");
        ck.approx_bytes()
    });
    let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
    let mut compress = Machine::new(config);
    load_kernel(&mut compress, 0, Kernel::Compress, 42);
    bench("checkpoint/capture_1m_compress", || {
        let ck = Checkpoint::capture(&compress, 1_000_000).expect("capture");
        ck.threads()[0].pc
    });
    bench("checkpoint/restore_20k", || {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
        let mut m = Machine::new(config.clone());
        load_kernel(&mut m, 0, Kernel::Murphi, 42);
        let ck = Checkpoint::capture(&m, 20_000).expect("capture");
        let mut total = 0u64;
        for _ in 0..8 {
            let mut fresh = Machine::new(config.clone());
            fresh.restore(&ck);
            total += fresh.stats().retired(0);
        }
        total
    });
    bench("checkpoint/series_capture_4x20k", || {
        let config = MachineConfig::paper_baseline(ExnMechanism::Multithreaded).with_threads(2);
        let mut m = Machine::new(config);
        load_kernel(&mut m, 0, Kernel::Murphi, 42);
        let series = Checkpoint::capture_series(&m, &[20_000, 40_000, 60_000, 80_000])
            .expect("series captures");
        series.iter().map(Checkpoint::approx_bytes).sum::<u64>()
    });
}

fn mk_inst(seq: u64) -> DynInst {
    let fe = FrontEndInst {
        seq,
        pc: 0x1000 + seq * 4,
        inst: Inst::n(Op::Nop),
        pal: false,
        pred: None,
        ready_at: 0,
    };
    DynInst::from_frontend(&fe, (seq % 4) as usize)
}

/// The window's fetch→retire slot churn in isolation: 64 live entries,
/// 40k inserts chased by in-order removals — the arena recycles one slot
/// per instruction where the old `FastHashMap` window rehashed and
/// reallocated. `window/hashmap_*` is the before shape for comparison.
fn window_insert_retire() {
    bench("window/arena_insert_retire_64", || {
        let mut w = Window::with_capacity(512);
        for seq in 0..64u64 {
            w.insert(mk_inst(seq), 0);
        }
        for seq in 64..40_064u64 {
            w.insert(mk_inst(seq), 0);
            std::hint::black_box(w.remove(seq - 64));
        }
        w.len()
    });
    bench("window/hashmap_insert_retire_64", || {
        let mut m: FastHashMap<u64, DynInst> = FastHashMap::default();
        for seq in 0..64u64 {
            m.insert(seq, mk_inst(seq));
        }
        for seq in 64..40_064u64 {
            m.insert(seq, mk_inst(seq));
            std::hint::black_box(m.remove(&(seq - 64)));
        }
        m.len()
    });
}

/// Producer→consumer wake propagation: every instruction feeds the next
/// two, completion drains the wake list and resolves both operands —
/// the batched-wake inner loop of `process_completions`.
fn window_wake_chain() {
    bench("window/arena_wake_chain", || {
        let mut w = Window::with_capacity(512);
        let mut wakes: Vec<(u64, u32)> = Vec::new();
        let mut woken = 0u64;
        for seq in 0..64u64 {
            w.insert(mk_inst(seq), 0);
        }
        for seq in 64..20_064u64 {
            let mut di = mk_inst(seq);
            di.srcs[0] = SrcState::Waiting { producer: seq - 1 };
            di.srcs[1] = SrcState::Waiting { producer: seq - 2 };
            w.insert(di, 0);
            w.add_consumer(seq - 1, seq, 0);
            w.add_consumer(seq - 2, seq, 1);
            let done = seq - 63;
            w.set_issued(done);
            w.mark_done(done);
            wakes.clear();
            w.take_consumers_into(done, &mut wakes);
            for &(c, slot) in &wakes {
                if w.resolve_src(c, slot as usize, done) == Some(true) {
                    woken += 1;
                }
            }
            std::hint::black_box(w.remove(seq - 64));
        }
        woken
    });
}

/// The scheduler's validation probe: `issue_state` reads two dense SoA
/// arrays where the old map probed a full ~150-byte `DynInst` per
/// candidate. This is the scan `issue_phase` runs per cycle over every
/// staged instruction, many times per instruction lifetime.
fn window_issue_probe() {
    bench("window/arena_issue_probe", || {
        let mut w = Window::with_capacity(512);
        for seq in 0..64u64 {
            w.insert(mk_inst(seq), 0);
        }
        let mut issuable = 0u64;
        for i in 0..400_000u64 {
            let seq = i % 64;
            if let Some((flags, earliest)) = w.issue_state(seq) {
                if flags == smtx_core::window::F_ISSUABLE && earliest <= i {
                    issuable += 1;
                }
            }
        }
        issuable
    });
    bench("window/hashmap_issue_probe", || {
        let mut m: FastHashMap<u64, DynInst> = FastHashMap::default();
        for seq in 0..64u64 {
            m.insert(seq, mk_inst(seq));
        }
        let mut issuable = 0u64;
        for i in 0..400_000u64 {
            let seq = i % 64;
            if let Some(di) = m.get(&seq) {
                // The pre-arena window kept issued/done on the DynInst;
                // srcs_ready() stands in for the flag checks it ran.
                if di.srcs_ready() && di.result <= i {
                    issuable += 1;
                }
            }
        }
        issuable
    });
}

/// Result-cache probes under the runner's real access pattern: several
/// worker threads concurrently hammering hit-heavy lookups of a few
/// hundred distinct keys. The sharded hash map spreads the workers over
/// 16 locks; the single global `Mutex<BTreeMap>` it replaced serializes
/// them all.
fn cache_lookup() {
    const KEYS: u64 = 400;
    const WORKERS: u64 = 8;
    const LOOKUPS: u64 = 100_000;
    bench("cache/shardmap_lookup_8workers", || {
        let m: ShardMap<u64, u64> = ShardMap::new();
        for k in 0..KEYS {
            m.get_or_insert_with(k, || k * 3);
        }
        let mut sum = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|t| {
                    let m = &m;
                    s.spawn(move || {
                        let mut local = 0u64;
                        for i in 0..LOOKUPS {
                            local += m.get(&((i * (t + 1)) % KEYS)).unwrap_or(0);
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                sum += h.join().expect("worker");
            }
        });
        sum
    });
    bench("cache/mutex_btreemap_lookup_8workers", || {
        let m: Mutex<BTreeMap<u64, u64>> = Mutex::new(BTreeMap::new());
        for k in 0..KEYS {
            m.lock().unwrap().insert(k, k * 3);
        }
        let mut sum = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|t| {
                    let m = &m;
                    s.spawn(move || {
                        let mut local = 0u64;
                        for i in 0..LOOKUPS {
                            local += m.lock().unwrap().get(&((i * (t + 1)) % KEYS)).copied().unwrap_or(0);
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                sum += h.join().expect("worker");
            }
        });
        sum
    });
}

fn main() {
    cache_hierarchy();
    tlb_ops();
    predictors();
    window_insert_retire();
    window_wake_chain();
    window_issue_probe();
    cache_lookup();
    checkpoint_ops();
    interpreter_throughput();
    pipeline_throughput();
    bench_step_cycle();
}
