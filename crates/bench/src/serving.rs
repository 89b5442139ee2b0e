//! The `repro serve` experiment: kernel bit bursts through the chaos
//! orchestrator, rendered as the serving SLO report.
//!
//! Not a paper figure — it certifies the availability story layered on
//! top of the paper's kernels. Each row is one fixed schedule
//! ([`bit_burst`]): a fault burst at one rate over the first 60% of the
//! horizon, hostile arrivals throughout, run through
//! [`run_schedule`] and its global oracle. Every arrival resolves to a
//! checksum-verified result (counted per failover-ladder rung) or a
//! typed error, breakers trip during the burst and recover after it,
//! and the p50/p99 simulated latencies quantify the cost of degraded
//! service.

use crate::verdict::Verdict;
use crate::Table;
use spaden_chaos::fixed::bit_burst;
use spaden_chaos::{run_schedule, ScenarioOutcome};
use spaden_gpusim::GpuConfig;
use spaden_serve::{Rung, Weaken};

/// One report row: a burst rate, a seed, and what its run produced.
#[derive(Debug, Clone)]
pub struct BurstCell {
    /// The burst's fault rate.
    pub rate: f64,
    /// The schedule's seed.
    pub seed: u64,
    /// The orchestrator's account of the run.
    pub outcome: ScenarioOutcome,
}

/// Runs the fixed bit-burst schedule for every rate × seed on `gpu` and
/// renders the outcome table, the latency table, and the SLO verdict.
/// Every profile must finish with zero oracle violations. The uniform
/// profile must also trip a breaker and record a recovery, and trip
/// none at rate 0; the tensor-core-only profile (`tc_only`) must never
/// exhaust the ladder or go unavailable, with the top rungs serving in
/// every cell.
pub fn serve_report(
    gpu: &GpuConfig,
    rates: &[f64],
    tc_only: bool,
    seeds: &[u64],
) -> (Vec<Table>, Verdict, Vec<BurstCell>) {
    let cells: Vec<BurstCell> = rates
        .iter()
        .flat_map(|&rate| seeds.iter().map(move |&seed| (rate, seed)))
        .map(|(rate, seed)| BurstCell {
            rate,
            seed,
            outcome: run_schedule(gpu, &bit_burst(seed, rate, tc_only), Weaken::None),
        })
        .collect();

    let mut outcomes = Table::new(
        format!("Serving outcomes under fault injection ({})", gpu.name),
        &[
            "rate", "seed", "offered", "hostile", "sharded", "checked", "scalar", "csr", "invalid",
            "deadline", "shed", "exhaust", "unavail", "trips", "recover", "retries", "wrong",
        ],
    );
    let mut latency = Table::new(
        format!("Served-request simulated latency ({})", gpu.name),
        &["rate", "seed", "served", "p50 us", "p99 us", "p50 kcycle", "p99 kcycle"],
    );
    for c in &cells {
        let (o, st) = (&c.outcome, &c.outcome.stats);
        let mut row = vec![format!("{:.0e}", c.rate), c.seed.to_string()];
        row.extend([o.offered, o.hostile].map(|v| v.to_string()));
        row.extend(Rung::ALL.map(|r| st.served[r as usize].to_string()));
        row.extend(
            [
                st.invalid,
                st.deadline_exceeded,
                st.shed,
                st.exhausted,
                st.unavailable,
                o.trips,
                o.recoveries,
                st.retries,
                o.violations.len() as u64,
            ]
            .map(|v| v.to_string()),
        );
        outcomes.push_row(row);
        latency.push_row(vec![
            format!("{:.0e}", c.rate),
            c.seed.to_string(),
            st.ok_total().to_string(),
            Table::num(st.p50_s() * 1e6),
            Table::num(st.p99_s() * 1e6),
            Table::num(st.p50_s() * gpu.clock_hz / 1e3),
            Table::num(st.p99_s() * gpu.clock_hz / 1e3),
        ]);
    }

    let sum = |f: fn(&ScenarioOutcome) -> u64| cells.iter().map(|c| f(&c.outcome)).sum::<u64>();
    let offered = sum(|o| o.offered as u64);
    let hostile = sum(|o| o.hostile as u64);
    let violations = sum(|o| o.violations.len() as u64);
    let failed_over = sum(|o| o.stats.exhausted + o.stats.unavailable);
    let (trips, recoveries) = (sum(|o| o.trips), sum(|o| o.recoveries));
    let bar = if tc_only {
        failed_over == 0
            && cells.iter().all(|c| {
                let served = &c.outcome.stats.served;
                served[Rung::Sharded as usize] + served[Rung::SpadenChecked as usize] > 0
            })
    } else {
        trips > 0
            && recoveries > 0
            && cells.iter().filter(|c| c.rate == 0.0).all(|c| c.outcome.trips == 0)
    };
    let pass = violations == 0 && bar;
    let verdict = Verdict::new(pass, format!(
        "SLO {}: {offered} arrivals ({hostile} hostile), {violations} oracle violations, \
         {failed_over} exhausted or unavailable, {trips} breaker trips, {recoveries} recoveries",
        if pass { "HELD" } else { "VIOLATED" },
    ));
    (vec![outcomes, latency], verdict, cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_slo_holds() {
        let (tables, verdict, cells) = serve_report(&GpuConfig::l40(), &[0.0, 0.05], false, &[5]);
        assert_eq!(tables.len(), 2);
        assert_eq!(cells.len(), 2);
        assert!(verdict.pass, "{verdict}");
        assert!(verdict.line.starts_with("SLO HELD"), "{verdict}");
        let rendered = tables[0].to_string();
        assert!(rendered.contains("Serving outcomes"));
        assert!(rendered.contains("trips"));
    }
}
