//! Differential tests for the layer-1 per-cycle hot path: the
//! word-packed `SignalFrame::diff` (XOR + `count_ones` per class, cached
//! per-class weights) must agree *exactly* — per-class toggle counts and
//! `f64::to_bits` energies — with the bit-loop `diff_reference` path it
//! replaced, over seeded-random frame soups, bus-driven frame streams,
//! the layer-1 doctest frames, the frames a faulted / torn bus and an
//! arbiter-merged CPU+DMA bus actually drive.
//!
//! The harness level is pinned the same way: every layer-1 runner
//! (plain, faulted, attributed, multi-master, campaign lean sessions,
//! the serve session, the reference's frame-log replay) is compared
//! against the same bus wiring driving
//! [`Layer1EnergyModel::on_frame_reference`], the test oracle —
//! cycles, records, committed memory, energy bits, trace bits and
//! attribution ledgers.

use hierbus::campaign::{CampaignOptions, CampaignPayload, Json, Matrix};
use hierbus::core::{HasSlaves, MultiMasterSystem};
use hierbus::ec::dma::master_of_trace;
use hierbus::ec::sequences::{self, random_mix, MasterOp, MixParams, Scenario};
use hierbus::ec::{
    AccessKind, ArbitrationPolicy, BurstLen, DataWidth, DmaParams, DmaProgram, FaultKind,
    FaultPlan, MultiScenario, OpFault, RetryPolicy, SignalFrame, SlaveId, WaitProfile,
};
use hierbus::harness::multi::MasterFaults;
use hierbus::harness::{self, fault::FaultRun, TlmRun};
use hierbus::power::{CharacterizationDb, Layer1EnergyModel, PowerTrace};
use hierbus::serve::ServeSession;
use hierbus::sim::SplitMix64;
use hierbus_core::{MemSlave, Tlm1Bus, TlmSystem};

/// A fully randomized frame: every field, including bits outside the
/// architectural widths (the packed path must reproduce the reference's
/// behaviour on out-of-range `a_addr` bits, which the public field
/// permits).
fn random_frame(rng: &mut SplitMix64) -> SignalFrame {
    let bits = rng.next_u64();
    SignalFrame {
        a_valid: bits & 1 != 0,
        a_addr: rng.next_u64(),
        a_kind: rng.next_u32() as u8,
        a_width: rng.next_u32() as u8,
        a_burst: rng.next_u32() as u8,
        a_ready: bits & 2 != 0,
        a_error: bits & 4 != 0,
        r_valid: bits & 8 != 0,
        r_data: rng.next_u32(),
        r_id: rng.next_u32() as u8,
        r_ready: bits & 16 != 0,
        r_error: bits & 32 != 0,
        w_valid: bits & 64 != 0,
        w_data: rng.next_u32(),
        w_ben: rng.next_u32() as u8,
        w_id: rng.next_u32() as u8,
        w_ready: bits & 128 != 0,
        w_error: bits & 256 != 0,
    }
}

/// Replays `frames` through both hot paths and asserts bit-exact
/// agreement of every per-cycle diff and every energy query.
fn assert_paths_agree(frames: &[SignalFrame], context: &str) {
    let db = harness::shared_db();
    let mut fast = Layer1EnergyModel::new((*db).clone());
    let mut slow = Layer1EnergyModel::new((*db).clone());
    fast.enable_trace();
    slow.enable_trace();
    let mut prev = SignalFrame::default();
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            frame.diff(&prev),
            frame.diff_reference(&prev),
            "{context}: diff mismatch at frame {i}"
        );
        fast.on_frame(frame);
        slow.on_frame_reference(frame);
        assert_eq!(
            fast.energy_last_cycle().to_bits(),
            slow.energy_last_cycle().to_bits(),
            "{context}: per-cycle energy diverges at frame {i}"
        );
        prev = *frame;
    }
    assert_eq!(fast.toggles(), slow.toggles(), "{context}: toggle totals");
    assert_eq!(
        fast.total_energy().to_bits(),
        slow.total_energy().to_bits(),
        "{context}: total energy"
    );
    assert_eq!(
        fast.energy_since_last_call().to_bits(),
        slow.energy_since_last_call().to_bits(),
        "{context}: interval energy"
    );
    assert_eq!(fast.trace(), slow.trace(), "{context}: traces");
}

#[test]
fn packed_diff_matches_reference_on_seeded_random_frames() {
    for seed in [0xD1FF_0001u64, 0x5EED_BEEF, 0x0BAD_CAFE, 0x1234_5678] {
        println!("energy_hotpath_diff seed = {seed:#x}");
        let mut rng = SplitMix64::new(seed);
        let frames: Vec<SignalFrame> = (0..512).map(|_| random_frame(&mut rng)).collect();
        assert_paths_agree(&frames, &format!("seed {seed:#x}"));
    }
    // Degenerate streams: empty and every length up to nine frames.
    for n in 0..=9u64 {
        let mut rng = SplitMix64::new(0x7A11 ^ n);
        let frames: Vec<SignalFrame> = (0..n).map(|_| random_frame(&mut rng)).collect();
        assert_paths_agree(&frames, &format!("len {n}"));
    }
}

#[test]
fn packed_diff_matches_reference_on_doctest_frames() {
    // The frames the layer-1 doctest and unit tests drive.
    let doc = SignalFrame {
        a_addr: 0xFF,
        ..SignalFrame::default()
    };
    let mut driven = SignalFrame::default();
    driven.drive_address(
        0xF_FFFF_FFFF,
        hierbus::ec::AccessKind::DataWrite,
        hierbus::ec::DataWidth::W32,
        hierbus::ec::BurstLen::B4,
        true,
        false,
    );
    driven.drive_write(0xDEAD_BEEF, 0xF, 3, true, false);
    let frames = [
        doc,
        SignalFrame::default(),
        driven,
        driven.to_idle(),
        SignalFrame::default(),
    ];
    assert_paths_agree(&frames, "doctest frames");
}

#[test]
fn packed_diff_matches_reference_on_fault_and_tear_frames() {
    let scenario = random_mix(
        0xFA57,
        MixParams {
            count: 120,
            read_pct: 50,
            burst_pct: 40,
            ..MixParams::default()
        },
    );
    let plans = [
        (
            "slave error with retries",
            FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
            RetryPolicy::retries(3),
        ),
        (
            "persistent stall",
            FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(17))),
            RetryPolicy::NONE,
        ),
        (
            "card tear mid-run",
            FaultPlan::new().with_tear(200),
            RetryPolicy::NONE,
        ),
    ];
    for (name, plan, policy) in plans {
        let mem = MemSlave::new(harness::scenario_slave(&scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut frames = Vec::new();
        sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
            frames.push(*bus.last_frame());
        });
        assert!(!frames.is_empty(), "{name}: no frames captured");
        assert_paths_agree(&frames, name);
    }
}

/// A seeded stream of settled frames as a master and a slave drive
/// them — address, read-data, write-data and idle cycles, each cycle
/// starting from the previous frame's idle form — unlike the all-fields
/// soup of [`random_frame`].
fn bus_driven_frames(seed: u64, n: usize) -> Vec<SignalFrame> {
    let mut rng = SplitMix64::new(seed);
    let mut f = SignalFrame::default();
    (0..n)
        .map(|_| {
            f = f.to_idle();
            match rng.range_u32(0, 5) {
                0 => f.drive_address(
                    rng.next_u64(),
                    AccessKind::DataRead,
                    DataWidth::W32,
                    BurstLen::B4,
                    true,
                    false,
                ),
                1 => f.drive_address(
                    rng.next_u64(),
                    AccessKind::InstrFetch,
                    DataWidth::W16,
                    BurstLen::Single,
                    rng.next_u64().is_multiple_of(2),
                    false,
                ),
                2 => f.drive_read(rng.next_u32(), rng.range_u32(0, 8) as u8, true, false),
                3 => f.drive_write(rng.next_u32(), 0xF, rng.range_u32(0, 8) as u8, true, false),
                _ => {}
            }
            f
        })
        .collect()
}

/// Per-class toggle counts of bus-driven frame pairs equal the
/// per-wire walk at every frame position, and both paths charge the
/// same energy, frame by frame and in total.
#[test]
fn bus_driven_frame_diffs_equal_wire_by_wire_reference() {
    for seed in [0x1u64, 0xDEAD_BEEF, 0xA5A5_5A5A] {
        let frames = bus_driven_frames(seed, 257);
        assert_paths_agree(&frames, &format!("bus-driven seed {seed:#x}"));
    }
}

/// The interval interface polled at random points — after no frame,
/// after one, after long runs — returns the oracle's interval to the
/// bit, over stream lengths from empty up past two hundred frames.
#[test]
fn interval_queries_at_random_points_match_oracle() {
    let db = harness::shared_db();
    let lengths = (0..=9).chain([63, 64, 65, 127, 128, 129, 273]);
    for n in lengths {
        let frames = bus_driven_frames(0x7A11 ^ n as u64, n);
        let mut poll = SplitMix64::new(0xC4DE ^ n as u64);
        let mut fast = Layer1EnergyModel::new((*db).clone());
        let mut slow = Layer1EnergyModel::new((*db).clone());
        let mut polls = 0;
        for (i, frame) in frames.iter().enumerate() {
            fast.on_frame(frame);
            slow.on_frame_reference(frame);
            // Poll with probability 1/4, sometimes twice in a row.
            while poll.range_u32(0, 4) == 0 {
                polls += 1;
                assert_eq!(
                    fast.energy_since_last_call().to_bits(),
                    slow.energy_since_last_call().to_bits(),
                    "len {n}: interval ending at frame {i}"
                );
            }
        }
        assert_eq!(
            fast.energy_since_last_call().to_bits(),
            slow.energy_since_last_call().to_bits(),
            "len {n}: final interval after {polls} polls"
        );
        assert_eq!(fast.energy_since_last_call(), 0.0, "len {n}: drained");
        assert_eq!(
            fast.total_energy().to_bits(),
            slow.total_energy().to_bits(),
            "len {n}: total"
        );
    }
}

/// `on_frame` and the oracle keep one signal state between them: a
/// model fed through both entry points in a random interleaving charges
/// every cycle exactly what a model fed through either one alone does.
#[test]
fn interleaved_entry_points_share_one_signal_state() {
    let db = harness::shared_db();
    for seed in [0x1E7Eu64, 0xFACE, 0x0DD5] {
        let frames = bus_driven_frames(seed, 300);
        let mut pick = SplitMix64::new(seed ^ 0x5E1E);
        let mut mixed = Layer1EnergyModel::new((*db).clone());
        let mut fast = Layer1EnergyModel::new((*db).clone());
        let mut slow = Layer1EnergyModel::new((*db).clone());
        mixed.enable_trace();
        fast.enable_trace();
        slow.enable_trace();
        for frame in &frames {
            if pick.next_u64().is_multiple_of(2) {
                mixed.on_frame(frame);
            } else {
                mixed.on_frame_reference(frame);
            }
            fast.on_frame(frame);
            slow.on_frame_reference(frame);
        }
        assert_eq!(mixed.trace(), fast.trace(), "seed {seed:#x}: vs on_frame");
        assert_eq!(mixed.trace(), slow.trace(), "seed {seed:#x}: vs oracle");
        assert_eq!(mixed.toggles(), slow.toggles(), "seed {seed:#x}: toggles");
        assert_eq!(
            mixed.total_energy().to_bits(),
            slow.total_energy().to_bits(),
            "seed {seed:#x}: total"
        );
    }
}

// ---------------------------------------------------------------------
// Harness level: every layer-1 runner against the bit-loop oracle.
// ---------------------------------------------------------------------

/// `harness::run_layer1`'s wiring with the bit-loop oracle in place of
/// the per-frame model.
fn oracle_layer1(scenario: &Scenario, db: &CharacterizationDb) -> TlmRun {
    let mem = MemSlave::new(harness::scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone());
    let mut model = Layer1EnergyModel::new(db.clone());
    model.enable_trace();
    let report = sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    TlmRun {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        bus_activations: report.bus_activations,
        trace: PowerTrace::from_samples(model.trace().unwrap_or(&[]).to_vec()),
    }
}

/// `harness::fault::run_layer1`'s wiring with the bit-loop oracle.
fn oracle_fault_layer1(
    scenario: &Scenario,
    db: &CharacterizationDb,
    plan: &FaultPlan,
    policy: RetryPolicy,
) -> FaultRun {
    let mem = MemSlave::new(harness::scenario_slave(scenario));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
    let mut model = Layer1EnergyModel::new(db.clone());
    let report = sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    let memory = sys
        .bus()
        .slave_as::<MemSlave>(SlaveId(0))
        .expect("scenario slave is a MemSlave")
        .snapshot();
    FaultRun {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        records: report.records,
        outcomes: report.outcomes,
        counters: report.fault,
        memory,
        torn: sys.torn(),
    }
}

fn probe_scenario(seed: u64, count: usize) -> Scenario {
    random_mix(
        seed,
        MixParams {
            count,
            read_pct: 50,
            burst_pct: 40,
            fetch_pct: 30,
            max_idle: 2,
            ..MixParams::default()
        },
    )
}

/// `run_layer1` against the oracle over several seeds and wait
/// profiles: cycles, records, energy bits and trace bits.
#[test]
fn run_layer1_matches_oracle_runs() {
    let db = harness::shared_db();
    let waits = [
        WaitProfile::default(),
        WaitProfile::new(1, 2, 2),
        WaitProfile::new(2, 0, 3),
    ];
    for seed in [0x11u64, 0x2222, 0xBE9C] {
        for (wi, &w) in waits.iter().enumerate() {
            let tag = format!("seed {seed:#x} waits {wi}");
            let mut scenario = probe_scenario(seed, 400);
            scenario.waits = w;
            let run = harness::run_layer1(&scenario, &db);
            let oracle = oracle_layer1(&scenario, &db);
            assert_eq!(run.cycles, oracle.cycles, "{tag}: cycles");
            assert_eq!(run.records, oracle.records, "{tag}: records");
            assert_eq!(
                run.energy_pj.to_bits(),
                oracle.energy_pj.to_bits(),
                "{tag}: energy"
            );
            assert_eq!(run.trace, oracle.trace, "{tag}: trace");
        }
    }
}

/// Fault and tear replays: a plan mixing transient slave errors,
/// stalls and retries, plus a card tear at every cycle of the clean run
/// and past its end, must charge exactly the oracle's energy — torn
/// frames included — and commit the same memory.
#[test]
fn fault_and_tear_replays_match_oracle() {
    let db = harness::shared_db();
    let scenario = Scenario {
        name: "fault-probe",
        ops: vec![
            MasterOp::write(0x100, 0xAAAA_5555),
            MasterOp::read(0x100).after_idle(1),
            MasterOp::write(0x104, 0x0F0F_F0F0),
            MasterOp::write(0x108, 0x1234_5678).after_idle(2),
            MasterOp::read(0x104),
            MasterOp::write(0x10C, 0xFFFF_0000),
        ]
        .into(),
        waits: WaitProfile::new(1, 2, 2),
    };
    let clean = harness::fault::run_layer1(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
    let mut plans = vec![FaultPlan::new()
        .with_fault(1, OpFault::once(FaultKind::SlaveError))
        .with_fault(3, OpFault::always(FaultKind::Stall(2)))];
    for t in 0..=clean.cycles + 1 {
        plans.push(FaultPlan::new().with_tear(t));
    }
    let policy = RetryPolicy::retries(2);
    for (pi, plan) in plans.iter().enumerate() {
        let run = harness::fault::run_layer1(&scenario, &db, plan, policy);
        let oracle = oracle_fault_layer1(&scenario, &db, plan, policy);
        assert_eq!(
            run.energy_pj.to_bits(),
            oracle.energy_pj.to_bits(),
            "plan {pi}: energy"
        );
        assert_eq!(
            (
                run.cycles,
                &run.records,
                &run.outcomes,
                &run.memory,
                run.torn
            ),
            (
                oracle.cycles,
                &oracle.records,
                &oracle.outcomes,
                &oracle.memory,
                oracle.torn
            ),
            "plan {pi}: cycles/records/outcomes/memory/torn"
        );
    }
}

/// The arbiter-merged CPU+DMA frame stream — back-to-back issues from
/// alternating masters, DMA bursts splicing into CPU traffic — under
/// both policies: frame by frame against the oracle, and
/// `harness::multi::run_layer1`'s total against the oracle's.
#[test]
fn multi_master_merged_streams_match_oracle() {
    use hierbus::core::MultiMasterSystem;
    use hierbus::ec::{ArbitrationPolicy, DmaParams, DmaProgram, MultiScenario};
    let db = harness::shared_db();
    for policy in ArbitrationPolicy::ALL {
        for seed in [0x3A5Au64, 0xC0DE] {
            let tag = format!("{}/seed {seed:#x}", policy.name());
            let dma = DmaProgram::seeded(
                seed ^ 0xD31A,
                DmaParams {
                    descriptors: 12,
                    ..DmaParams::default()
                },
            );
            let ms = MultiScenario::new("multi-probe", probe_scenario(seed, 64), &dma, policy);
            let mem = MemSlave::new(harness::scenario_slave(&ms.cpu));
            let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
            bus.enable_frames();
            let mut sys = MultiMasterSystem::for_multi(bus, &ms);
            let mut frames: Vec<SignalFrame> = Vec::new();
            sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
                frames.push(*bus.last_frame());
            });
            assert!(frames.len() > 64, "{tag}: merged stream too short");
            assert_paths_agree(&frames, &tag);

            let mut oracle = Layer1EnergyModel::new((*db).clone());
            for f in &frames {
                oracle.on_frame_reference(f);
            }
            let run = harness::multi::run_layer1(&ms, &db, &[]);
            assert_eq!(
                run.energy_pj.to_bits(),
                oracle.total_energy().to_bits(),
                "{tag}: energy"
            );
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    cycles: u64,
    energy_pj: f64,
}

impl CampaignPayload for Cell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cycles".to_owned(), Json::Num(self.cycles as f64)),
            ("energy_pj".to_owned(), Json::Num(self.energy_pj)),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(Cell {
            cycles: json.get("cycles")?.as_u64()?,
            energy_pj: json.get("energy_pj")?.as_f64()?,
        })
    }
}

/// Bit-precise rendering: energies as raw u64 bit patterns, so a
/// sub-ulp divergence cannot hide behind decimal formatting.
fn render(cells: &[Cell]) -> String {
    cells
        .iter()
        .map(|c| format!("{} {:#018x}\n", c.cycles, c.energy_pj.to_bits()))
        .collect()
}

/// Campaign merges through reset-reused lean sessions are
/// byte-identical at 1, 2 and 4 workers, and every cell equals a fresh
/// `run_layer1` and a fresh oracle run on that scenario, bit for bit.
#[test]
fn campaign_merges_at_1_2_4_workers_match_fresh_oracle_runs() {
    let db = harness::shared_db();
    let seeds: Vec<u64> = (0..6).map(|i| 0x9C00 + i as u64).collect();
    let scenarios: Vec<Scenario> = seeds.iter().map(|&s| probe_scenario(s, 120)).collect();
    let matrix = Matrix::new().axis("seed", seeds.iter().map(|s| format!("{s:#x}")));

    let anchored: Vec<Cell> = scenarios
        .iter()
        .map(|s| {
            let full = harness::run_layer1(s, &db);
            let oracle = oracle_layer1(s, &db);
            assert_eq!(full.energy_pj.to_bits(), oracle.energy_pj.to_bits());
            assert_eq!(full.cycles, oracle.cycles);
            Cell {
                cycles: oracle.cycles,
                energy_pj: oracle.energy_pj,
            }
        })
        .collect();
    let expected = render(&anchored);

    for workers in [1usize, 2, 4] {
        let report = hierbus::campaign::run_with(
            &matrix,
            &CampaignOptions::with_workers("hotpath-campaign", workers),
            || harness::Layer1LeanSession::new(&db),
            |session, point| {
                let run = session.run(&scenarios[point.coords[0]]);
                Cell {
                    cycles: run.cycles,
                    energy_pj: run.energy_pj,
                }
            },
        )
        .unwrap();
        let cells: Vec<Cell> = report.results.into_iter().flatten().collect();
        assert_eq!(
            render(&cells),
            expected,
            "merged cells at {workers} workers"
        );
    }
}

/// Attribution rides on the per-cycle trace, so the attributed runner
/// must reproduce the oracle's ledger bucket by bucket — spans,
/// per-slave splits and residual included — over random traffic and
/// wait profiles.
#[test]
fn attribution_ledger_matches_oracle_ledger() {
    let db = harness::shared_db();
    for case in 0..8u64 {
        let seed = 0x1ED6_0000 + case;
        let mut rng = SplitMix64::new(seed);
        let mut scenario = random_mix(
            seed,
            MixParams {
                count: rng.range_u32(4, 30) as usize,
                burst_pct: 40,
                max_idle: 2,
                ..MixParams::default()
            },
        );
        scenario.waits = WaitProfile::new(
            rng.range_u32(0, 3),
            rng.range_u32(0, 4),
            rng.range_u32(0, 4),
        );
        let run = harness::fault::run_layer1_attributed(
            &scenario,
            &db,
            &FaultPlan::new(),
            RetryPolicy::NONE,
        );

        let mem = MemSlave::new(harness::scenario_slave(&scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_obs();
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone());
        let mut oracle = Layer1EnergyModel::new((*db).clone());
        oracle.enable_trace();
        sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
            oracle.on_frame_reference(bus.last_frame());
        });
        let spans = sys.bus().obs().spans().to_vec();
        let ledger = oracle
            .ledger(&spans, &harness::scenario_slave_map())
            .expect("trace enabled");
        assert_eq!(run.ledger, ledger, "seed {seed:#x}: ledger buckets");
        assert_eq!(
            run.run.energy_pj.to_bits(),
            oracle.total_energy().to_bits(),
            "seed {seed:#x}: total energy"
        );
        assert_eq!(
            run.trace,
            oracle.trace().unwrap_or(&[]).to_vec(),
            "seed {seed:#x}: cycle trace"
        );
    }
}

/// Attribution under injected faults and card tears: the attributed
/// runner's ledger, trace and energy equal the oracle's over the same
/// observed, faulted bus wiring, and its run equals
/// `harness::fault::run_layer1`'s.
#[test]
fn attributed_fault_and_tear_runs_match_oracle_ledger() {
    let db = harness::shared_db();
    let scenario = probe_scenario(0xA77F, 40);
    let clean = harness::fault::run_layer1(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
    let mut plans = vec![
        FaultPlan::new().with_fault(2, OpFault::once(FaultKind::SlaveError)),
        FaultPlan::new()
            .with_fault(0, OpFault::always(FaultKind::Stall(3)))
            .with_fault(5, OpFault::once(FaultKind::SlaveError)),
    ];
    for t in [0, 1, clean.cycles / 3, clean.cycles / 2, clean.cycles - 1] {
        plans.push(FaultPlan::new().with_tear(t));
    }
    let policy = RetryPolicy::retries(2);
    for (pi, plan) in plans.iter().enumerate() {
        let attributed = harness::fault::run_layer1_attributed(&scenario, &db, plan, policy);

        let mem = MemSlave::new(harness::scenario_slave(&scenario));
        let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
        bus.enable_obs();
        bus.enable_frames();
        let mut sys = TlmSystem::new(bus, scenario.ops.clone()).with_faults(plan.clone(), policy);
        let mut oracle = Layer1EnergyModel::new((*db).clone());
        oracle.enable_trace();
        sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
            oracle.on_frame_reference(bus.last_frame());
        });
        let spans = sys.bus().obs().spans().to_vec();
        let ledger = oracle
            .ledger(&spans, &harness::scenario_slave_map())
            .expect("trace enabled");
        assert_eq!(attributed.ledger, ledger, "plan {pi}: ledger buckets");
        assert_eq!(
            attributed.trace,
            oracle.trace().unwrap_or(&[]).to_vec(),
            "plan {pi}: cycle trace"
        );
        assert_eq!(
            attributed.run.energy_pj.to_bits(),
            oracle.total_energy().to_bits(),
            "plan {pi}: energy"
        );
        assert_eq!(attributed.run.torn, sys.torn(), "plan {pi}: torn");
        assert_eq!(attributed.run.torn, pi >= 2, "plan {pi}: tear plans tear");

        let plain = harness::fault::run_layer1(&scenario, &db, plan, policy);
        assert_eq!(
            plain.energy_pj.to_bits(),
            attributed.run.energy_pj.to_bits(),
            "plan {pi}: observation changed the energy"
        );
        assert_eq!(
            (plain.cycles, &plain.outcomes, &plain.memory),
            (
                attributed.run.cycles,
                &attributed.run.outcomes,
                &attributed.run.memory
            ),
            "plan {pi}: observation changed the run"
        );
    }
}

/// A CPU+DMA workload for the multi-master pins.
fn probe_multi(seed: u64, policy: ArbitrationPolicy) -> MultiScenario {
    let dma = DmaProgram::seeded(
        seed ^ 0xD31A,
        DmaParams {
            descriptors: 12,
            ..DmaParams::default()
        },
    );
    MultiScenario::new("multi-probe", probe_scenario(seed, 64), &dma, policy)
}

/// What `harness::multi::run_layer1` reports, recomputed over the same
/// faulted, observed wiring with the bit-loop oracle.
struct MultiOracle {
    cycles: u64,
    energy_pj: f64,
    ledger: hierbus::obs::EnergyLedger,
    memory: Vec<(u64, u32)>,
    torn: bool,
}

fn oracle_multi_layer1(
    ms: &MultiScenario,
    db: &CharacterizationDb,
    faults: &[MasterFaults],
) -> MultiOracle {
    let mem = MemSlave::new(harness::scenario_slave(&ms.cpu));
    let mut bus = Tlm1Bus::new(vec![Box::new(mem)]);
    bus.enable_frames();
    bus.enable_obs();
    let mut sys = MultiMasterSystem::for_multi(bus, ms);
    for f in faults {
        sys.set_master_faults(f.master, f.plan.clone(), f.policy);
    }
    let mut model = Layer1EnergyModel::new(db.clone());
    model.enable_trace();
    let report = sys.run(harness::MAX_CYCLES, |bus: &mut Tlm1Bus| {
        model.on_frame_reference(bus.last_frame());
    });
    let ledger = hierbus::obs::attribute_cycles_by_master(
        "tlm1",
        sys.bus().obs().spans(),
        model.trace().unwrap_or(&[]),
        &harness::scenario_slave_map(),
        |id| Some(master_of_trace(id)),
    );
    let memory = sys
        .bus()
        .slave_as::<MemSlave>(SlaveId(0))
        .expect("scenario slave is a MemSlave")
        .snapshot();
    MultiOracle {
        cycles: report.cycles,
        energy_pj: model.total_energy(),
        ledger,
        memory,
        torn: sys.torn(),
    }
}

/// Per-master faults and a CPU-side card tear on the arbitrated bus:
/// `harness::multi::run_layer1` charges the oracle's energy to the bit
/// and splits it into the same per-master ledger buckets.
#[test]
fn multi_master_faulted_runs_match_oracle_ledger() {
    let db = harness::shared_db();
    let fault_sets = [
        vec![],
        vec![
            MasterFaults {
                master: 0,
                plan: FaultPlan::new().with_fault(1, OpFault::once(FaultKind::SlaveError)),
                policy: RetryPolicy::retries(2),
            },
            MasterFaults {
                master: 1,
                plan: FaultPlan::new().with_fault(0, OpFault::always(FaultKind::Stall(3))),
                policy: RetryPolicy::NONE,
            },
        ],
        vec![MasterFaults {
            master: 0,
            plan: FaultPlan::new().with_tear(90),
            policy: RetryPolicy::NONE,
        }],
    ];
    for policy in ArbitrationPolicy::ALL {
        let ms = probe_multi(0x3A5A, policy);
        for (fi, faults) in fault_sets.iter().enumerate() {
            let tag = format!("{}/faults {fi}", policy.name());
            let run = harness::multi::run_layer1(&ms, &db, faults);
            let oracle = oracle_multi_layer1(&ms, &db, faults);
            assert_eq!(
                run.energy_pj.to_bits(),
                oracle.energy_pj.to_bits(),
                "{tag}: energy"
            );
            assert_eq!(run.ledger, oracle.ledger, "{tag}: ledger buckets");
            assert_eq!(run.torn, fi == 2, "{tag}: the tear set tears");
            assert_eq!(
                (run.cycles, &run.memory, run.torn),
                (oracle.cycles, &oracle.memory, oracle.torn),
                "{tag}: cycles/memory/torn"
            );
        }
    }
}

/// The reference runner's layer-1 pin — the characterized model over
/// the settled RTL frame log — equals the oracle replaying that same
/// log, and equals the layer-1 run of the same workload.
#[test]
fn multi_reference_frame_log_replay_matches_oracle() {
    let db = harness::shared_db();
    for policy in ArbitrationPolicy::ALL {
        for seed in [0x3A5Au64, 0xC0DE] {
            let tag = format!("{}/seed {seed:#x}", policy.name());
            let ms = probe_multi(seed, policy);
            let reference = harness::multi::run_reference(&ms, &db, &[]);

            let mut sys = hierbus::rtl::RtlSystem::for_multi_scenario(&ms);
            sys.set_glitch(hierbus::rtl::GlitchConfig::off());
            sys.enable_frame_log();
            sys.run(harness::MAX_CYCLES);
            let mut oracle = Layer1EnergyModel::new((*db).clone());
            for frame in sys.frames().expect("frame log enabled") {
                oracle.on_frame_reference(frame);
            }
            let pinned = reference
                .l1_frames_energy_pj
                .expect("reference runs pin the frame log");
            assert_eq!(
                pinned.to_bits(),
                oracle.total_energy().to_bits(),
                "{tag}: frame-log replay"
            );
            let l1 = harness::multi::run_layer1(&ms, &db, &[]);
            assert_eq!(
                l1.energy_pj.to_bits(),
                pinned.to_bits(),
                "{tag}: layer 1 vs the reference's frame log"
            );
        }
    }
}

/// The daemon's scenario runner, one session reused over the standard
/// scenarios and seeded mixes, reproduces `harness::run_layer1` and
/// the oracle bit for bit — the serve layer never drifts from the batch
/// tools.
#[test]
fn serve_matches_harness() {
    let db = harness::shared_db();
    let mut scenarios = sequences::all_scenarios();
    scenarios.extend([0x5E1u64, 0x5E2, 0x5E3].map(|s| probe_scenario(s, 150)));
    let mut session = ServeSession::new(&db);
    for scenario in &scenarios {
        let served = session.run(scenario);
        let full = harness::run_layer1(scenario, &db);
        let oracle = oracle_layer1(scenario, &db);
        assert_eq!(served.cycles, full.cycles, "{}: cycles", scenario.name);
        assert_eq!(
            served.energy_pj.to_bits(),
            full.energy_pj.to_bits(),
            "{}: vs run_layer1",
            scenario.name
        );
        assert_eq!(
            served.energy_pj.to_bits(),
            oracle.energy_pj.to_bits(),
            "{}: vs oracle",
            scenario.name
        );
    }
}

/// The daemon's CPU+DMA runner, interleaved with single-master runs on
/// one session, reproduces `harness::multi::run_layer1` and the oracle
/// bit for bit.
#[test]
fn serve_multi_matches_multi_layer1_and_oracle() {
    let db = harness::shared_db();
    let mut session = ServeSession::new(&db);
    for policy in ArbitrationPolicy::ALL {
        for seed in [0x3A5Au64, 0xC0DE] {
            let tag = format!("{}/seed {seed:#x}", policy.name());
            let ms = probe_multi(seed, policy);
            let served = session.run_multi(&ms);
            // A single-master run between multi runs must leave no state.
            session.run(&ms.cpu);
            let again = session.run_multi(&ms);
            let l1 = harness::multi::run_layer1(&ms, &db, &[]);
            let oracle = oracle_multi_layer1(&ms, &db, &[]);
            assert_eq!(served, again, "{tag}: session reuse");
            assert_eq!(served.cycles, l1.cycles, "{tag}: cycles");
            assert_eq!(
                served.energy_pj.to_bits(),
                l1.energy_pj.to_bits(),
                "{tag}: vs multi::run_layer1"
            );
            assert_eq!(
                served.energy_pj.to_bits(),
                oracle.energy_pj.to_bits(),
                "{tag}: vs oracle"
            );
        }
    }
}

/// Degenerate stimulus — no ops, one op, one burst — through every
/// layer-1 runner: each agrees with the oracle and with the others.
#[test]
fn empty_and_single_op_scenarios_match_oracle_in_every_runner() {
    let db = harness::shared_db();
    let cases: [(&'static str, Vec<MasterOp>); 3] = [
        ("no ops", vec![]),
        ("one write", vec![MasterOp::write(0x40, 0xC0FF_EE00)]),
        (
            "one read after idle",
            vec![MasterOp::read(0x40).after_idle(3)],
        ),
    ];
    let mut session = harness::Layer1Session::new(&db);
    let mut lean = harness::Layer1LeanSession::new(&db);
    let mut served = ServeSession::new(&db);
    for (name, ops) in cases {
        let scenario = Scenario {
            name,
            ops: ops.into(),
            waits: WaitProfile::new(1, 1, 2),
        };
        let oracle = oracle_layer1(&scenario, &db);
        let energy = oracle.energy_pj.to_bits();
        let full = harness::run_layer1(&scenario, &db);
        assert_eq!(full.energy_pj.to_bits(), energy, "{name}: run_layer1");
        assert_eq!(full.trace, oracle.trace, "{name}: run_layer1 trace");
        assert_eq!(full.cycles, oracle.cycles, "{name}: run_layer1 cycles");
        let reused = session.run(&scenario);
        assert_eq!(reused.energy_pj.to_bits(), energy, "{name}: session");
        assert_eq!(reused.trace, oracle.trace, "{name}: session trace");
        let l = lean.run(&scenario);
        assert_eq!(l.energy_pj.to_bits(), energy, "{name}: lean session");
        assert_eq!(l.cycles, oracle.cycles, "{name}: lean cycles");
        let s = served.run(&scenario);
        assert_eq!(s.energy_pj.to_bits(), energy, "{name}: serve session");
        let faulted =
            harness::fault::run_layer1(&scenario, &db, &FaultPlan::new(), RetryPolicy::NONE);
        assert_eq!(faulted.energy_pj.to_bits(), energy, "{name}: fault runner");
        let attributed = harness::fault::run_layer1_attributed(
            &scenario,
            &db,
            &FaultPlan::new(),
            RetryPolicy::NONE,
        );
        assert_eq!(
            attributed.run.energy_pj.to_bits(),
            energy,
            "{name}: attributed runner"
        );
    }
}
