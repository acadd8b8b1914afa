//! The in-process workload, `batch_discover`: batches of seekers sharing
//! a keyword set go straight into the clustered engine's
//! `query_batch_opts`, with no HTTP; then apply batches go through the
//! engine's transactional apply.

use crate::engine::Engine;
use crate::inputs::{Batch, K};
use crate::serve::{us, Pass, SLICE, SLO, WARMUP};
use crate::stats::{Outcome, Ratio, Samples};
use crate::trace::Trace;
use socialscope_content::{
    ApplyReport, BatchOptions, BatchScratchPool, ClusteredQueryReport, TagEvent,
};
use socialscope_exec::Exec;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;
/// Batches per side per round of the thread-scaling comparison.
const SPEEDUP_BATCHES: usize = 256;
const SPEEDUP_ROUNDS: usize = 3;

/// The engine's own per-query counters, summed over a set of queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub queries: u64,
    pub sorted_accesses: u64,
    pub exact_computations: u64,
    pub early_terminated: Ratio,
    pub fallback: Ratio,
}

impl Counters {
    pub fn add(&mut self, report: &ClusteredQueryReport, has_fallback: bool) {
        self.queries += 1;
        self.sorted_accesses += report.result.sorted_accesses as u64;
        self.exact_computations += report.result.exact_computations as u64;
        self.early_terminated.add(Ratio::new(u64::from(report.result.early_terminated), 1));
        self.fallback.add(Ratio::new(u64::from(report.unclustered && has_fallback), 1));
    }

    pub fn per_query(&self, total: u64) -> f64 {
        Ratio::new(total, self.queries).value()
    }
}

fn run_batch(
    engine: &Engine,
    exec: &Exec,
    pool: &mut BatchScratchPool,
    batch: &Batch,
) -> Vec<ClusteredQueryReport> {
    engine.query_batch_opts(
        black_box(&batch.seekers),
        &batch.keywords,
        K,
        BatchOptions::new().exec(exec).scratch_pool(pool),
    )
}

/// Unmeasured batches on a fresh engine.
pub fn warm_up(engine: &Engine, exec: &Exec, pool: &mut BatchScratchPool, batches: &[Batch]) {
    let until = Instant::now() + WARMUP;
    for batch in batches.iter().cycle() {
        if Instant::now() >= until {
            break;
        }
        black_box(run_batch(engine, exec, pool, batch));
    }
}

/// The in-process workload's inputs, and the pool it runs on.
pub struct Work<'a> {
    pub exec: &'a Exec,
    pub batches: &'a [Batch],
    pub applies: &'a [Vec<TagEvent>],
    pub expected: &'a [ApplyReport],
}

/// `batch_discover`: batches for `slices` seconds, each timed from call to
/// return; then the apply batches `applies` through the engine's
/// transactional apply, one after another.
pub fn piece(
    engine: &mut Engine,
    pool: &mut BatchScratchPool,
    work: &Work<'_>,
    slices: usize,
    applies: Range<usize>,
    mut trace: Option<&mut Trace>,
) -> Result<Pass, String> {
    let exec = work.exec;
    let mut pass = Pass::default();
    let mut good = vec![0u64; slices];
    let start = Instant::now();
    let stop = start + SLICE * slices as u32;
    let mut end = start;
    for (b, batch) in work.batches.iter().cycle().enumerate() {
        if end >= stop {
            break;
        }
        let began = Instant::now();
        if b > 0 {
            pass.send_late_us.push(us(began - end));
        }
        let reports = run_batch(engine, exec, pool, batch);
        end = Instant::now();
        for report in &reports {
            let degraded = report.deadline_expired || report.result.deadline_expired;
            pass.tally.record(if degraded { Outcome::Degraded } else { Outcome::Ok });
        }
        let took = end - began;
        pass.query_us.push(us(took));
        if took <= SLO {
            let slice = ((end - start).as_secs() as usize).min(slices - 1);
            good[slice] += reports.len() as u64;
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.record("discovery.query_batch", began, end, None, b as u64);
        }
        black_box(reports);
    }
    pass.slice_rates = good.iter().map(|&n| n as f64 / SLICE.as_secs_f64()).collect();

    for j in applies {
        let began = Instant::now();
        let result = engine.try_apply_with(exec, &work.applies[j]);
        let took = us(began.elapsed());
        pass.record_apply(j, result.ok().map(|report| (report, took, took)), work.expected)?;
    }
    Ok(pass)
}

/// The same batches on one thread against two: the median of
/// `SPEEDUP_ROUNDS` alternating rounds, one-thread time over two-thread.
pub fn parallel_speedup(engine: &Engine, batches: &[Batch]) -> f64 {
    let time_on = |threads: usize| {
        let exec = Exec::new(threads).expect("thread count is positive");
        let mut pool = BatchScratchPool::default();
        let began = Instant::now();
        for batch in batches.iter().cycle().take(SPEEDUP_BATCHES) {
            black_box(run_batch(engine, &exec, &mut pool, batch));
        }
        began.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..SPEEDUP_ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let one = time_on(1);
                one / time_on(2)
            } else {
                let two = time_on(2);
                time_on(1) / two
            }
        })
        .collect();
    Samples::new(ratios).median_or_zero()
}
