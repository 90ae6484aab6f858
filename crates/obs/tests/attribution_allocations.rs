//! Allocation regression for cycle attribution: the heap allocations of
//! `attribute_cycles_by_master` depend on the number of distinct buckets
//! only, never on trace length or span count.
//!
//! This binary installs the counting allocator, so it is its own
//! integration test target.

use hierbus_obs::profiling::{thread_allocations, CountingAlloc};
use hierbus_obs::{attribute_cycles_by_master, AccessClass, Phase, SlaveMap, SpanEvent};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn slaves() -> SlaveMap {
    let mut m = SlaveMap::new();
    m.add(0x0, 0x100, "ram").add(0x100, 0x200, "rom");
    m
}

fn master_of(id: u64) -> Option<&'static str> {
    Some(if id.is_multiple_of(2) { "cpu" } else { "dma" })
}

/// A pipelined transfer every 4 cycles — address beat, two data beats,
/// one idle cycle — cycling through slaves, classes and masters with a
/// period of 12 transfers, so any trace of 48+ cycles has the same
/// bucket set.
fn synthetic(cycles: u64) -> (Vec<SpanEvent>, Vec<f64>) {
    let classes = [AccessClass::Fetch, AccessClass::Read, AccessClass::Write];
    let spans = (0..cycles / 4)
        .flat_map(|id| {
            let begin = id * 4;
            let class = classes[(id % 3) as usize];
            let data = match class {
                AccessClass::Write => Phase::WriteData,
                _ => Phase::ReadData,
            };
            let addr = if id % 4 < 2 { 0x10 } else { 0x110 };
            [
                (Phase::Request, begin, begin),
                (Phase::Address, begin, begin),
                (data, begin + 1, begin + 2),
            ]
            .map(|(phase, begin, end)| SpanEvent {
                trace_id: id,
                phase,
                begin,
                end,
                addr,
                class,
                error: false,
            })
        })
        .collect();
    let trace = (0..cycles).map(|c| 0.5 + (c % 7) as f64).collect();
    (spans, trace)
}

/// Allocations made by one attribution call (the returned ledger's
/// included), plus the ledger's bucket keys.
fn attribute_counting(cycles: u64) -> (u64, Vec<String>) {
    let (spans, trace) = synthetic(cycles);
    let slaves = slaves();
    let before = thread_allocations();
    let ledger = attribute_cycles_by_master("tlm1", &spans, &trace, &slaves, master_of);
    let allocs = thread_allocations() - before;
    let keys = ledger.entries().map(|(k, _)| k.folded_key()).collect();
    (allocs, keys)
}

#[test]
fn attribution_allocations_do_not_grow_with_cycles_or_spans() {
    let (small, small_keys) = attribute_counting(10_000);
    let (large, large_keys) = attribute_counting(100_000);
    assert_eq!(small_keys, large_keys, "traces must share one bucket set");
    assert!(
        small_keys.len() > 10,
        "bucket set too small: {small_keys:?}"
    );
    assert!(small > 0, "counting allocator not installed");
    assert_eq!(
        small, large,
        "allocations grew with trace length: {small} at 10k cycles, {large} at 100k"
    );
}
