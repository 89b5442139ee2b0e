//! End-to-end resilience properties of the serving layer, driven by the
//! simulator's fault injector:
//!
//! 1. Under sustained full-rate injection the per-rung breakers trip and
//!    requests are shed with typed errors; once the fault burst stops the
//!    breakers probe, recover, and service resumes — all on simulated
//!    time, fully deterministic.
//! 2. The fixed bit-burst schedules of `repro serve` — 200+ arrivals,
//!    malformed vectors and impossible deadlines among them, across
//!    fault rates and seeds — pass the chaos oracle: every `Ok` matches
//!    an f64 oracle and every hostile arrival ends in a typed error.
//! 3. Deadlines and input validation hold under fault-free load too.

use spaden_chaos::fixed::{bit_burst, SERVE_SEEDS, UNIFORM_RATES};
use spaden_chaos::run_schedule;
use spaden_gpusim::{FaultConfig, Gpu, GpuConfig};
use spaden_serve::{
    BreakerState, Request, Rung, ServeConfig, ServeError, SpmvServer, Weaken,
};
use spaden_sparse::gen;

fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

#[test]
fn breakers_trip_under_sustained_injection_and_recover_after() {
    let csr = gen::random_uniform(96, 96, 1400, 71);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = srv.register(&csr).expect("clean registration before the burst");

    // Sustained burst: every value sector read corrupted. All three rungs
    // fail verification on every attempt, so each breaker accumulates
    // failures and trips.
    srv.set_fault_config(FaultConfig::uniform(404, 1.0));
    let mut shed = 0u32;
    for _ in 0..8 {
        match srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }) {
            Ok(ok) => panic!("full-rate faults must not produce a verified result: {:?}", ok.rung),
            Err(ServeError::LadderExhausted { .. }) | Err(ServeError::DeadlineExceeded { .. }) => {}
            Err(ServeError::Unavailable) => shed += 1,
            Err(other) => panic!("unexpected error under injection: {other}"),
        }
    }
    let (trips, _) = srv.breaker_totals();
    assert!(trips >= 3, "sustained injection must trip all rungs (got {trips} trips)");
    assert!(shed > 0, "open breakers must shed load as Unavailable");
    assert_eq!(
        srv.breaker(Rung::SpadenChecked).state(),
        BreakerState::Open,
        "top rung open at end of burst"
    );
    assert_eq!(srv.stats().ok_total(), 0, "nothing verifiable was served during the burst");

    // Burst ends. Arrival ticks keep the simulated clock moving, so the
    // cooldown elapses, a half-open probe succeeds, and service resumes.
    srv.set_fault_config(FaultConfig::disabled());
    let mut recovered_ok = 0u32;
    let mut last_rung = None;
    for _ in 0..30 {
        if let Ok(ok) = srv.serve(Request { matrix: h, x: make_x(96), deadline_s: None }) {
            recovered_ok += 1;
            last_rung = Some(ok.rung);
        }
    }
    let (_, recoveries) = srv.breaker_totals();
    assert!(recovered_ok >= 10, "service must resume after the burst (got {recovered_ok})");
    assert_eq!(last_rung, Some(Rung::SpadenChecked), "recovery restores the top rung");
    assert!(recoveries >= 1, "at least one breaker must record a recovery");
    assert_eq!(srv.breaker(Rung::SpadenChecked).state(), BreakerState::Closed);
    assert!(srv.breaker(Rung::SpadenChecked).health() > 0.5, "health rebuilt by successes");
}

#[test]
fn chaos_sweep_of_200_plus_requests_has_zero_silent_wrong_results() {
    // The uniform schedules of `repro serve` at its first seed: every
    // rate, ~290 arrivals.
    let gpu = GpuConfig::l40();
    let runs: Vec<_> = UNIFORM_RATES
        .iter()
        .map(|&rate| {
            (rate, run_schedule(&gpu, &bit_burst(SERVE_SEEDS[0], rate, false), Weaken::None))
        })
        .collect();
    let offered: usize = runs.iter().map(|(_, o)| o.offered).sum();
    assert!(offered >= 200, "sweep size: {offered}");
    assert!(runs.iter().all(|(_, o)| o.hostile > 0), "every schedule sends hostile arrivals");
    // The oracle covers the old sweep's checks: an Ok that fails the
    // f64 oracle, an arrival without an outcome, and a hostile arrival
    // that does not end in a typed error are all violations.
    for (rate, o) in &runs {
        assert!(o.violations.is_empty(), "rate {rate}: {:#?}", o.violations);
    }
    // The clean schedules trip nothing; the faulted ones exercise the
    // breakers.
    assert!(runs.iter().filter(|(rate, _)| *rate == 0.0).all(|(_, o)| o.trips == 0));
    assert!(runs.iter().map(|(_, o)| o.trips).sum::<u64>() > 0, "bursts must trip breakers");
}

#[test]
fn tensor_core_only_faults_are_absorbed_by_abft_correction() {
    // Fragment corruption lands only on MMA accumulators; the checked
    // rung detects and repairs it on the scalar path, so service stays on
    // the top rung with zero wrong answers — the paper's ABFT story,
    // observed through the serving layer.
    let o = run_schedule(&GpuConfig::l40(), &bit_burst(SERVE_SEEDS[0], 1.0, true), Weaken::None);
    assert!(o.violations.is_empty(), "{:#?}", o.violations);
    assert!(
        o.stats.served[Rung::SpadenChecked as usize] > 0,
        "ABFT correction keeps the top rung serving: {:?}",
        o.stats
    );
    assert_eq!(o.stats.exhausted + o.stats.unavailable, 0, "no shedding needed: {:?}", o.stats);
}

#[test]
fn deadline_and_invalid_requests_are_typed_under_clean_load() {
    let csr = gen::random_uniform(64, 64, 900, 73);
    let mut srv = SpmvServer::new(Gpu::new(GpuConfig::l40()), ServeConfig::default());
    let h = srv.register(&csr).unwrap();

    // Impossible deadline: typed, with the budget echoed back.
    match srv.serve(Request { matrix: h, x: make_x(64), deadline_s: Some(1e-12) }) {
        Err(ServeError::DeadlineExceeded { budget_s, .. }) => assert_eq!(budget_s, 1e-12),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    // Malformed vector: typed, no panic, breaker untouched (permanent
    // errors must not count toward tripping).
    let trips_before = srv.breaker_totals().0;
    match srv.serve(Request { matrix: h, x: make_x(63), deadline_s: None }) {
        Err(ServeError::Invalid(_)) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
    assert_eq!(srv.breaker_totals().0, trips_before);
}
