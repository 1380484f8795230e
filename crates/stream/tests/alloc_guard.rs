//! Allocation guard for the streaming hot path: once an
//! [`OnlineDetector`] is warm (full window, scratches grown to shape),
//! `push_with` must perform **exactly zero heap allocations** — the
//! evicted signature's point vectors, weight buffer, and the histogram
//! bin tables are recycled into the next build, and every solver
//! tableau, distance row, scorer matrix, weight vector, and bootstrap
//! buffer comes from the caller-kept scratches.
//!
//! The guard measures exact allocation counts with a counting global
//! allocator (this integration test is its own binary, so the allocator
//! affects nothing else). The whole file compiles only under
//! `cfg(debug_assertions)` — the default `cargo test` profile, and the
//! one CI uses — so release test builds, where the optimizer may reshape
//! allocations, hold no guard and nothing unused.
#![cfg(debug_assertions)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bagcpd::{
    Bag, BootstrapConfig, Detector, DetectorConfig, EvalScratch, ScoreKind, SignatureMethod,
    Weighting,
};
use stream::telemetry::{names, LATENCY_BUCKETS};
use stream::{Clock, EmdScratch, MetricsRegistry, OnlineDetector, SolveTimer};

/// System allocator wrapper counting allocation events per thread
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`; frees are not
/// counted — dropping the evicted signature is fine, allocating its
/// replacement's working set is not).
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

/// Deterministic bags cycling through a small set of shapes, so the
/// warm-up sees every histogram layout the measured pushes will build.
fn bag_at(t: usize) -> Bag {
    let level = (t % 4) as f64 * 0.3;
    Bag::from_scalars((0..24).map(move |i| level + ((i * 5 + t) % 9) as f64 * 0.25))
}

/// As [`bag_at`], over 24 distinct values instead of 9: enough for a
/// 16-atom signature, whose pairs fill transport tableaus of more than
/// 128 cells, where the solver starts from the least-cost rule.
fn wide_bag_at(t: usize) -> Bag {
    let level = (t % 4) as f64 * 0.3;
    Bag::from_scalars((0..48).map(move |i| level + ((i * 5 + t) % 24) as f64 * 0.25))
}

/// Both scores under both weightings: the nominal score and the
/// replicate batch run out of the scratches `EvalScratch` carries, for
/// Eq. 16 as for Eq. 17, with equal and with Eq. 15's discounted
/// weights.
#[test]
fn warm_push_allocates_exactly_nothing() {
    const SEED: u64 = 7;
    const WARM: usize = 24; // several full eviction cycles past window fill
    const MEASURED: usize = 16; // a multiple of the 4-shape bag cycle

    let scores = [ScoreKind::SymmetrizedKl, ScoreKind::LikelihoodRatio];
    let weightings = [Weighting::Equal, Weighting::Discounted];
    for (score, weighting) in scores.into_iter().flat_map(|s| weightings.map(|w| (s, w))) {
        let detector = Detector::new(DetectorConfig {
            tau: 4,
            tau_prime: 3,
            score,
            weighting,
            signature: SignatureMethod::Histogram { width: 0.5 },
            bootstrap: BootstrapConfig {
                replicates: 64,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("valid config");

        let mut online = OnlineDetector::new(detector, SEED);
        let mut eval = EvalScratch::new();
        let mut emd = EmdScratch::new();

        // Everything the measured loop consumes is built up front. The
        // warm-up cycles through every bag shape the measured pushes
        // will see, so the scratch pools reach their high-water mark
        // first.
        let warm_bags: Vec<Bag> = (0..WARM).map(bag_at).collect();
        let measured_bags: Vec<Bag> = (WARM..WARM + MEASURED).map(bag_at).collect();

        for bag in warm_bags {
            online
                .push_with(bag, &mut eval, &mut emd)
                .expect("warm-up push");
        }

        // Measured: full pushes — signature build (recycled from the
        // evicted signature), EMD solves, window matrix update, scorer,
        // bootstrap — through the warm scratches.
        let before = alloc_events();
        let mut emitted = 0usize;
        for bag in measured_bags {
            if online
                .push_with(bag, &mut eval, &mut emd)
                .expect("measured push")
                .is_some()
            {
                emitted += 1;
            }
        }
        let push_allocs = alloc_events() - before;
        assert_eq!(emitted, MEASURED, "warm detector emits every push");

        assert_eq!(
            push_allocs, 0,
            "a warm {score:?} {weighting:?} push_with must not allocate at all: the \
             signature build must recycle the evicted signature's buffers, \
             and every EMD solve, the window matrix, the scorer, and the \
             bootstrap must run out of the scratches ({push_allocs} events \
             over {MEASURED} pushes)"
        );
    }
}

/// The same guarantee for every clustering signature method: once warm,
/// the scratch-backed k-means/k-medoids/LVQ builds recycle the evicted
/// signature's rows and the cluster scratch's buffers — zero heap
/// events per push, exactly like the histogram path. The k = 16 case
/// solves its EMDs from the least-cost start, whose live lines and row
/// minima come from the transport scratch too.
#[test]
fn warm_clustering_push_allocates_exactly_nothing() {
    const SEED: u64 = 7;
    const WARM: usize = 24;
    const MEASURED: usize = 16;

    for (method, bag_at) in [
        (SignatureMethod::KMeans { k: 4 }, bag_at as fn(usize) -> Bag),
        (SignatureMethod::KMedoids { k: 4 }, bag_at),
        (SignatureMethod::Lvq { k: 4 }, bag_at),
        (SignatureMethod::KMeans { k: 16 }, wide_bag_at),
    ] {
        let detector = Detector::new(DetectorConfig {
            tau: 4,
            tau_prime: 3,
            signature: method.clone(),
            bootstrap: BootstrapConfig {
                replicates: 64,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("valid config");

        let mut online = OnlineDetector::new(detector, SEED);
        let mut eval = EvalScratch::new();
        let mut emd = EmdScratch::new();

        let warm_bags: Vec<Bag> = (0..WARM).map(bag_at).collect();
        let measured_bags: Vec<Bag> = (WARM..WARM + MEASURED).map(bag_at).collect();
        for bag in warm_bags {
            online
                .push_with(bag, &mut eval, &mut emd)
                .expect("warm-up push");
        }

        let before = alloc_events();
        for bag in measured_bags {
            online
                .push_with(bag, &mut eval, &mut emd)
                .expect("measured push");
        }
        let push_allocs = alloc_events() - before;
        assert_eq!(
            push_allocs, 0,
            "a warm {method:?} push_with must not allocate: the \
             scratch-backed quantizer must recycle the evicted \
             signature's rows ({push_allocs} events over {MEASURED} \
             pushes)"
        );
        if method == (SignatureMethod::KMeans { k: 16 }) {
            let atoms: Vec<usize> = online.state().sigs.iter().map(|s| s.len()).collect();
            assert!(
                atoms.iter().all(|&n| n > 11),
                "every signature pair must reach the least-cost start: atoms {atoms:?}"
            );
        }
    }
}

/// The same guarantee with telemetry attached: a solve-latency timer in
/// the scratch records every EMD solve into a pre-registered histogram
/// — pure atomics, so the instrumented warm path still allocates
/// exactly zero.
#[test]
fn warm_instrumented_push_allocates_exactly_nothing() {
    const SEED: u64 = 7;
    const WARM: usize = 24;
    const MEASURED: usize = 16;

    let detector = Detector::new(DetectorConfig {
        tau: 4,
        tau_prime: 3,
        signature: SignatureMethod::Histogram { width: 0.5 },
        bootstrap: BootstrapConfig {
            replicates: 64,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("valid config");

    // Registration (the allocating step) happens here, before the
    // measured loop; the timer carried by the scratch is plain atomics.
    let clock = Clock::manual();
    let registry = MetricsRegistry::with_clock(clock.clone());
    let hist = registry.histogram(
        names::SOLVER_SOLVE_SECONDS,
        "solve seconds",
        LATENCY_BUCKETS,
    );
    let mut emd = EmdScratch::new();
    emd.set_solve_timer(SolveTimer::new(hist.clone(), registry.clock()));

    let mut online = OnlineDetector::new(detector, SEED);
    let mut eval = EvalScratch::new();

    let warm_bags: Vec<Bag> = (0..WARM).map(bag_at).collect();
    let measured_bags: Vec<Bag> = (WARM..WARM + MEASURED).map(bag_at).collect();
    for bag in warm_bags {
        online
            .push_with(bag, &mut eval, &mut emd)
            .expect("warm-up push");
    }
    let warm_solves = hist.count();
    assert!(warm_solves > 0, "the timer observes warm-up solves");

    let before = alloc_events();
    for bag in measured_bags {
        clock.advance_ns(1_000); // let each solve see time passing
        online
            .push_with(bag, &mut eval, &mut emd)
            .expect("measured push");
    }
    let push_allocs = alloc_events() - before;

    assert!(
        hist.count() > warm_solves,
        "the measured pushes keep recording solves"
    );
    assert_eq!(
        push_allocs, 0,
        "an instrumented warm push_with must not allocate: the timer is \
         a pre-registered histogram handle recording via atomics \
         ({push_allocs} events over {MEASURED} pushes)"
    );
}
