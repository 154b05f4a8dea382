//! The figure-artifact lint audit behind the `lint` binary.
//!
//! The committed `results/*.json` artifacts are each backed by a sweep of
//! scheduling jobs ([`crate::figures`] declares them).  This module enumerates
//! every deduplicated job behind all five figure pipelines ([`figure_jobs`]) and
//! statically certifies every schedule those jobs produce — kernel and exact-unroll
//! remainder alike — with `vliw_lint`'s [`Certifier`], folding the outcome into one
//! deterministic [`LintAuditReport`] written to `results/lint_report.json`.
//!
//! Everything is ordered (jobs in first-declaration order, corpora and loops in
//! input order, histograms in `BTreeMap`s), so the report is byte-identical across
//! runs and thread counts and sits in the golden byte-identity suite next to the
//! figure artifacts themselves.

use crate::sweep::{job_groups, Sweep, SweepJob};
use crate::{figures, schedule_loop};
use cvliw_core::UnrollPolicy;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vliw_ddg::DepGraph;
use vliw_lint::{Certifier, LintReport};
use vliw_sim::verification_iterations;
use vliw_sms::ModuloSchedule;
use vliw_workloads::LoopCorpus;

/// Every deduplicated `(machine, algorithm, policy)` job behind the five committed
/// figure pipelines (`fig4`, `fig8`, `fig9`, `fig10`, `fig_unroll`), baselines
/// included.  Declaring all figures on one [`Sweep`] deduplicates *across* figures
/// too (Figures 8 and 10 share their whole clustered grid), so this is exactly the
/// distinct scheduling work behind the committed artifacts.
pub fn figure_jobs() -> Vec<SweepJob> {
    let mut sweep = Sweep::new();
    figures::declare_fig4(&mut sweep);
    figures::declare_fig8(&mut sweep);
    figures::declare_fig9(&mut sweep);
    figures::declare_fig10(&mut sweep);
    figures::declare_fig_unroll(&mut sweep);
    sweep.jobs()
}

/// The lint audit of one scheduling job over every corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAudit {
    /// Machine name.
    pub machine: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Unrolling-policy label.
    pub policy: String,
    /// Schedules certified (kernels plus exact-unroll remainder epilogues).
    pub schedules: u64,
    /// Schedules with zero deny-level diagnostics.
    pub certified: u64,
    /// Loops the scheduler could not schedule (no schedule to certify).
    pub unschedulable: u64,
    /// Histogram over warn-level lint ids across all certified schedules.
    pub warnings: BTreeMap<String, u64>,
    /// Full lint reports of every uncertified schedule (empty = job clean).
    pub deny_reports: Vec<LintReport>,
}

/// The full, deterministic output of the figure-artifact lint audit — written to
/// `results/lint_report.json` by the `lint` binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LintAuditReport {
    /// Names of the audited corpora, in input order.
    pub corpora: Vec<String>,
    /// One audit per deduplicated figure job, in declaration order.
    pub jobs: Vec<JobAudit>,
    /// Total schedules certified.
    pub schedules_audited: u64,
    /// Total schedules with zero deny-level diagnostics.
    pub certified: u64,
    /// Total uncertified schedules (the `lint` binary exits non-zero iff > 0).
    pub deny_schedules: u64,
    /// Aggregate warn-lint histogram over all jobs.
    pub warnings: BTreeMap<String, u64>,
}

impl LintAuditReport {
    /// Whether every audited schedule was certified.
    pub fn passed(&self) -> bool {
        self.deny_schedules == 0
    }
}

impl JobAudit {
    /// An audit of `job` that has seen no loop yet.
    fn empty((machine, algorithm, policy): &SweepJob) -> Self {
        Self {
            machine: machine.name.clone(),
            algorithm: algorithm.label().to_string(),
            policy: policy.label(),
            schedules: 0,
            certified: 0,
            unschedulable: 0,
            warnings: BTreeMap::new(),
            deny_reports: Vec::new(),
        }
    }

    /// Certify one schedule of `graph` and fold the outcome in.
    fn certify(&mut self, certifier: &Certifier, graph: &DepGraph, sched: &ModuloSchedule) {
        let report = certifier.check(graph, sched, verification_iterations(graph));
        self.schedules += 1;
        for id in report.warn_ids() {
            *self.warnings.entry(id).or_insert(0) += 1;
        }
        if report.is_certified() {
            self.certified += 1;
        } else {
            self.deny_reports.push(report);
        }
    }

    /// Fold in the audit of later loops of the same job.
    fn absorb(&mut self, later: JobAudit) {
        self.schedules += later.schedules;
        self.certified += later.certified;
        self.unschedulable += later.unschedulable;
        for (id, n) in later.warnings {
            *self.warnings.entry(id).or_insert(0) += n;
        }
        self.deny_reports.extend(later.deny_reports);
    }
}

/// Audit `jobs` over `corpora`: schedule every loop of every corpus under each job
/// and certify every produced schedule (kernel and remainder).  The jobs are
/// grouped by machine structure and algorithm, and the policies of a group read
/// one schedule memo per loop, so each loop body is scheduled once per group.  The
/// `(group, loop)` units run rayon-parallel; each job folds its units in loop
/// order, so the report is deterministic.
pub fn audit_jobs(jobs: &[SweepJob], corpora: &[LoopCorpus]) -> LintAuditReport {
    let groups = job_groups(jobs);
    let loops: Vec<&DepGraph> = corpora.iter().flat_map(|c| &c.loops).collect();
    let units: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..loops.len()).map(move |l| (g, l)))
        .collect();
    let unit_audits: Vec<Vec<JobAudit>> = units
        .par_iter()
        .map(|&(g, l)| {
            let (machine, algorithm, _) = &jobs[groups[g][0]];
            let policies: Vec<UnrollPolicy> = groups[g].iter().map(|&j| jobs[j].2).collect();
            let certifier = Certifier::new(machine);
            let graph = loops[l];
            groups[g]
                .iter()
                .zip(schedule_loop(graph, machine, *algorithm, &policies))
                .map(|(&j, scheduled)| {
                    let mut audit = JobAudit::empty(&jobs[j]);
                    match scheduled {
                        Err(_) => audit.unschedulable += 1,
                        Ok(cs) => {
                            audit.certify(&certifier, &cs.scheduled_graph, &cs.schedule);
                            if let Some(rem) = &cs.remainder {
                                audit.certify(&certifier, graph, &rem.schedule);
                            }
                        }
                    }
                    audit
                })
                .collect()
        })
        .collect();
    let mut job_audits: Vec<JobAudit> = jobs.iter().map(JobAudit::empty).collect();
    for (&(g, _), audits) in units.iter().zip(unit_audits) {
        for (&j, audit) in groups[g].iter().zip(audits) {
            job_audits[j].absorb(audit);
        }
    }

    let mut report = LintAuditReport {
        corpora: corpora
            .iter()
            .map(|c| c.benchmark.name().to_string())
            .collect(),
        jobs: job_audits,
        schedules_audited: 0,
        certified: 0,
        deny_schedules: 0,
        warnings: BTreeMap::new(),
    };
    for job in &report.jobs {
        report.schedules_audited += job.schedules;
        report.certified += job.certified;
        report.deny_schedules += job.schedules - job.certified;
        for (id, n) in &job.warnings {
            *report.warnings.entry(id.clone()).or_insert(0) += n;
        }
    }
    report
}

/// Audit every schedule behind the committed figure artifacts ([`figure_jobs`])
/// over `corpora`.
pub fn audit_figures(corpora: &[LoopCorpus]) -> LintAuditReport {
    audit_jobs(&figure_jobs(), corpora)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::job_key;
    use std::collections::BTreeSet;
    use vliw_workloads::SpecFp95;

    fn small_corpus() -> Vec<LoopCorpus> {
        let mut c = LoopCorpus::generate(SpecFp95::Swim);
        c.loops.truncate(3);
        vec![c]
    }

    #[test]
    fn figure_jobs_cover_every_figure_without_duplicates() {
        let jobs = figure_jobs();
        // The five figures declare hundreds of cells; the deduplicated job list is
        // far smaller but still substantial (fig4's grid alone has 56 clustered
        // machines), and every entry is structurally unique.
        assert!(jobs.len() >= 60, "only {} jobs", jobs.len());
        let keys: BTreeSet<String> = jobs.iter().map(|(m, a, p)| job_key(m, *a, *p)).collect();
        assert_eq!(
            keys.len(),
            jobs.len(),
            "duplicate job escaped deduplication"
        );
    }

    #[test]
    fn figure_jobs_cover_every_job_of_each_figure() {
        // The `lint` binary is the static audit of every figure run: each job any
        // single figure schedules, baselines included, must be one it certifies.
        let audited: BTreeSet<String> = figure_jobs()
            .iter()
            .map(|(m, a, p)| job_key(m, *a, *p))
            .collect();
        let declared = |declare: fn(&mut Sweep)| {
            let mut sweep = Sweep::new();
            declare(&mut sweep);
            sweep.jobs()
        };
        for (figure, jobs) in [
            ("fig4", declared(|s| drop(figures::declare_fig4(s)))),
            ("fig8", declared(|s| drop(figures::declare_fig8(s)))),
            ("fig9", declared(|s| drop(figures::declare_fig9(s)))),
            ("fig10", declared(|s| drop(figures::declare_fig10(s)))),
            (
                "fig_unroll",
                declared(|s| drop(figures::declare_fig_unroll(s))),
            ),
        ] {
            assert!(!jobs.is_empty(), "{figure} declares no job");
            for (m, a, p) in &jobs {
                assert!(
                    audited.contains(&job_key(m, *a, *p)),
                    "{figure}: job ({}, {a:?}, {p:?}) escapes the lint audit",
                    m.name
                );
            }
        }
    }

    #[test]
    fn a_small_audit_certifies_everything_and_is_deterministic() {
        let corpora = small_corpus();
        let jobs = &figure_jobs()[..4];
        let report = audit_jobs(jobs, &corpora);
        assert!(report.passed(), "{:?}", report.jobs);
        assert_eq!(report.certified, report.schedules_audited);
        assert!(
            report.schedules_audited >= 4 * 3 // every job schedules each of the 3 loops (remainders may add more)
        );
        let again = audit_jobs(jobs, &corpora);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn audit_reports_roundtrip_through_json() {
        let report = audit_jobs(&figure_jobs()[..1], &small_corpus());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LintAuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
