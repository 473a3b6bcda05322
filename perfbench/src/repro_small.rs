//! `repro-small`: every experiment of `repro all` at `Scale::Small`,
//! through `rmt_bench::experiments::run` — many small launches, cells
//! that several figures repeat, and the two fault-injection campaigns.

use crate::trace::Tracer;
use crate::{digest, seeded_order, PassReport, Workload};
use rmt_bench::experiments::{self, ALL_IDS};
use rmt_bench::ExpConfig;

pub struct ReproSmall {
    /// Experiment ids in the seeded run order.
    ids: Vec<&'static str>,
    cfg: ExpConfig,
}

impl ReproSmall {
    pub fn setup(seed: u64) -> Result<Self, String> {
        crate::registry()?;
        Ok(ReproSmall {
            ids: seeded_order(seed, ALL_IDS.to_vec()),
            cfg: ExpConfig::small().with_jobs(1),
        })
    }
}

impl Workload for ReproSmall {
    fn pass(&mut self, tr: &mut Tracer) -> PassReport {
        let mut rep = PassReport::default();
        let mut digests = Vec::new();
        for &id in &self.ids {
            let res = rep.time_op(|| {
                tr.span(&format!("bench.exp_s.{id}"), |_| {
                    experiments::run(id, &self.cfg)
                })
            });
            let text = match res {
                Ok(text) => text,
                Err(e) => {
                    rep.wrong.push(format!("{id}: {e}"));
                    format!("error: {e}")
                }
            };
            digests.push((id, format!("{:016x}", digest(0, text.as_bytes()))));
        }
        // Report digests in `ALL_IDS` order, independent of the seed.
        digests.sort_by_key(|(id, _)| ALL_IDS.iter().position(|x| x == id));
        rep.fixed = digests;
        rep
    }

    fn container(&self) -> &'static str {
        "bench.pass"
    }
}
