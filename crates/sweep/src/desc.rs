//! The wire-format grid description: a [`SpecGrid`] as pure data.
//!
//! A [`SpecGrid`] holds instantiated task graphs, so it cannot itself cross
//! a process boundary. [`GridDesc`] is its round-trippable description —
//! workloads by Fig. 8 suite label, schedulers in their canonical CLI
//! spelling, seeds, scale — with a **canonical JSON form**: fixed key
//! order (`workloads`, `schedulers`, `seeds`, `scale`, `record_trace`,
//! then `shard` only when present), no whitespace. [`GridDesc::from_json`] accepts any key order and
//! whitespace; [`GridDesc::spec_hash`] hashes the canonical form, so the
//! hash is invariant under reordering/reformatting — that is what makes it
//! usable as a results-cache key in the serve daemon.
//!
//! `parse(print(desc)) == desc` and the hash invariance are enforced by
//! `crates/sweep/tests/wire_roundtrip.rs`.

use crate::json::{self, Value};
use crate::scheduler::SchedulerKind;
use crate::shard::SpecRange;
use crate::spec::{EngineSpec, RunSpec, SpecGrid, Workload, DEFAULT_SEED};
use joss_workloads::{fig8_bench, fig8_labels, Scale};
use std::fmt::Write as _;

/// Declarative, serializable description of a [`SpecGrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridDesc {
    /// Fig. 8 suite labels (resolved through [`fig8_bench`] at `scale`).
    pub workloads: Vec<String>,
    /// Scheduler columns.
    pub schedulers: Vec<SchedulerKind>,
    /// Seeds (empty means the grid default, [`crate::spec::DEFAULT_SEED`]).
    pub seeds: Vec<u64>,
    /// Workload scale shared by every spec.
    pub scale: Scale,
    /// Opt every spec into execution-trace recording.
    pub record_trace: bool,
    /// Run only this contiguous range of the grid's global spec indices
    /// (`None` runs the whole grid). The described *grid* is unchanged —
    /// records of a sharded run carry their **global** spec indices, which
    /// is what lets shard outputs concatenate byte-identically into the
    /// unsharded JSONL (see [`crate::shard`]).
    pub shard: Option<SpecRange>,
}

impl Default for GridDesc {
    fn default() -> Self {
        GridDesc {
            workloads: Vec::new(),
            schedulers: Vec::new(),
            seeds: Vec::new(),
            scale: DEFAULT_SCALE,
            record_trace: false,
            shard: None,
        }
    }
}

/// Scale assumed when a request omits it (matches the `joss_sweep` CLI).
pub const DEFAULT_SCALE: Scale = Scale::Divided(100);

impl GridDesc {
    /// Number of specs in the **full** described grid, shard or not.
    pub fn spec_count(&self) -> usize {
        self.workloads.len() * self.schedulers.len() * self.seeds.len().max(1)
    }

    /// Number of specs this description will actually *run*: the shard's
    /// length when sharded, the full grid otherwise.
    pub fn run_count(&self) -> usize {
        self.shard.map_or_else(|| self.spec_count(), |r| r.len())
    }

    /// Global index of the first record this description emits.
    pub fn index_base(&self) -> usize {
        self.shard.map_or(0, |r| r.start)
    }

    /// The same grid restricted to one contiguous spec-index range (the
    /// sub-grid a fleet coordinator dispatches to one backend).
    pub fn with_shard(&self, range: SpecRange) -> GridDesc {
        GridDesc {
            shard: Some(range),
            ..self.clone()
        }
    }

    /// Err unless the shard range (if any) is a valid, non-empty sub-range
    /// of the full grid.
    pub fn validate_shard(&self) -> Result<(), String> {
        if let Some(r) = self.shard {
            if r.start >= r.end {
                return Err(format!("shard range {r} is empty"));
            }
            if r.end > self.spec_count() {
                return Err(format!(
                    "shard range {r} exceeds the grid's {} specs",
                    self.spec_count()
                ));
            }
        }
        Ok(())
    }

    /// The canonical JSON form: fixed key order, no whitespace. Two
    /// descriptions are equal iff their canonical strings are equal.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::from("{\"workloads\":[");
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::quote(w));
        }
        out.push_str("],\"schedulers\":[");
        for (i, s) in self.schedulers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json::quote(&s.to_cli_string()));
        }
        out.push_str("],\"seeds\":[");
        for (i, seed) in self.seeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{seed}");
        }
        out.push_str("],\"scale\":");
        match self.scale {
            Scale::Full => out.push_str("\"full\""),
            Scale::Divided(d) => {
                let _ = write!(out, "{d}");
            }
        }
        let _ = write!(out, ",\"record_trace\":{}", self.record_trace);
        // The shard key appears only when present, so unsharded grids keep
        // the canonical form (and spec hash) they had before sharding
        // existed — a shard is a different cache entry than its full grid.
        if let Some(r) = self.shard {
            let _ = write!(out, ",\"shard\":[{},{}]", r.start, r.end);
        }
        out.push('}');
        out
    }

    /// The canonical JSON of the **base grid** — this description with any
    /// shard restriction stripped. Every shard cut of the same grid shares
    /// one base canonical (and base [`GridDesc::spec_hash`]), which is
    /// what lets a per-spec result store recognize overlapping ranges of
    /// the same grid regardless of how the ranges were cut.
    pub fn to_base_canonical_json(&self) -> String {
        match self.shard {
            None => self.to_canonical_json(),
            Some(_) => GridDesc {
                shard: None,
                ..self.clone()
            }
            .to_canonical_json(),
        }
    }

    /// Parse a description from JSON (any key order/whitespace). Unknown
    /// keys are rejected so protocol typos fail loudly instead of silently
    /// running a different grid.
    pub fn from_json(text: &str) -> Result<GridDesc, String> {
        let root = json::parse(text)?;
        let members = root
            .as_object()
            .ok_or_else(|| "grid description must be a JSON object".to_string())?;
        let mut desc = GridDesc::default();
        for (key, value) in members {
            match key.as_str() {
                "workloads" => {
                    desc.workloads = string_array(value, "workloads")?;
                }
                "schedulers" => {
                    desc.schedulers = string_array(value, "schedulers")?
                        .iter()
                        .map(|s| s.parse())
                        .collect::<Result<_, _>>()?;
                }
                "seeds" => {
                    let items = value
                        .as_array()
                        .ok_or_else(|| "\"seeds\" must be an array".to_string())?;
                    desc.seeds = items
                        .iter()
                        .map(|v| {
                            v.as_u64()
                                .ok_or_else(|| "seeds must be unsigned integers".to_string())
                        })
                        .collect::<Result<_, _>>()?;
                }
                "scale" => {
                    desc.scale = match value {
                        Value::String(s) if s == "full" => Scale::Full,
                        v => {
                            let d = v.as_u64().ok_or_else(|| {
                                "\"scale\" must be \"full\" or a positive divisor".to_string()
                            })?;
                            let d = u32::try_from(d)
                                .map_err(|_| "scale divisor too large".to_string())?;
                            if d == 0 {
                                return Err("scale divisor must be >= 1".to_string());
                            }
                            Scale::Divided(d)
                        }
                    };
                }
                "record_trace" => {
                    desc.record_trace = value
                        .as_bool()
                        .ok_or_else(|| "\"record_trace\" must be a boolean".to_string())?;
                }
                "shard" => {
                    let items = value
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| "\"shard\" must be a [start,end] pair".to_string())?;
                    let bound = |v: &Value| {
                        v.as_u64()
                            .and_then(|n| usize::try_from(n).ok())
                            .ok_or_else(|| "shard bounds must be unsigned integers".to_string())
                    };
                    desc.shard = Some(SpecRange {
                        start: bound(&items[0])?,
                        end: bound(&items[1])?,
                    });
                }
                other => return Err(format!("unknown grid description key {other:?}")),
            }
        }
        if desc.workloads.is_empty() {
            return Err("grid description needs a non-empty \"workloads\" array".to_string());
        }
        if desc.schedulers.is_empty() {
            return Err("grid description needs a non-empty \"schedulers\" array".to_string());
        }
        desc.validate_shard()?;
        Ok(desc)
    }

    /// Stable 64-bit key for this grid: FNV-1a over the canonical JSON, so
    /// it is invariant under JSON key order and whitespace by construction.
    pub fn spec_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in self.to_canonical_json().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Instantiate the described grid, resolving workload labels against
    /// the Fig. 8 suite at this description's scale.
    ///
    /// Labels resolve through [`fig8_bench`]'s process-wide graph memo, so
    /// only the *named* workloads are ever built, and a label some earlier
    /// grid, shard plan or request already resolved at this scale shares
    /// that graph instead of being built again. This runs on the serve
    /// daemon's miss path while an admission permit is held.
    pub fn resolve(&self) -> Result<SpecGrid, String> {
        self.check_axes()?;
        if self.shard.is_some() {
            // A shard is not a cartesian grid; the full-grid builder would
            // silently run everything. Force callers through the
            // shard-aware path.
            return Err("sharded description: use resolve_specs()".to_string());
        }
        let workloads: Vec<Workload> = self
            .workloads
            .iter()
            .map(|label| self.workload(label))
            .collect::<Result<_, _>>()?;
        Ok(SpecGrid::new()
            .workloads(workloads)
            .schedulers(self.schedulers.iter().copied())
            .seeds(self.seeds.iter().copied())
            .record_trace(self.record_trace))
    }

    /// Instantiate the spec list this description *runs*, plus the global
    /// index of its first spec: the whole grid for an unsharded
    /// description, exactly the shard's slice (in global spec order) for a
    /// sharded one.
    ///
    /// Only workloads whose spec blocks intersect the shard are resolved —
    /// spec order is workload-major, so a shard touches a contiguous run
    /// of workloads and a backend serving one shard of a 21-workload grid
    /// resolves only its share of the graphs. The slice is exactly what
    /// [`SpecGrid::build`] would emit at those indices, which is what
    /// makes sharded records byte-identical to the full run's.
    pub fn resolve_specs(&self) -> Result<(usize, Vec<RunSpec>), String> {
        self.validate_shard()?;
        let range = match self.shard {
            None => return Ok((0, self.resolve()?.build())),
            Some(range) => range,
        };
        let seeds: Vec<u64> = if self.seeds.is_empty() {
            vec![DEFAULT_SEED]
        } else {
            self.seeds.clone()
        };
        let block = self.schedulers.len() * seeds.len(); // specs per workload
        let first_w = range.start / block;
        let last_w = (range.end - 1) / block;
        let built: Vec<Workload> = (first_w..=last_w)
            .map(|wi| self.workload(&self.workloads[wi]))
            .collect::<Result<_, _>>()?;
        let mut specs = Vec::with_capacity(range.len());
        for index in range.start..range.end {
            let rem = index % block;
            specs.push(RunSpec {
                workload: built[index / block - first_w].clone(),
                scheduler: self.schedulers[rem / seeds.len()],
                engine: EngineSpec {
                    seed: seeds[rem % seeds.len()],
                    record_trace: self.record_trace,
                },
            });
        }
        Ok((range.start, specs))
    }

    /// Err unless the grid has at least one workload and one scheduler.
    pub(crate) fn check_axes(&self) -> Result<(), String> {
        if self.workloads.is_empty() || self.schedulers.is_empty() {
            return Err("grid needs at least one workload and one scheduler".to_string());
        }
        Ok(())
    }

    /// One labelled workload at this description's scale, from the graph
    /// memo.
    pub(crate) fn workload(&self, label: &str) -> Result<Workload, String> {
        fig8_bench(label, self.scale)
            .map(Workload::from)
            .ok_or_else(|| {
                format!(
                    "unknown workload {label:?}; available: {}",
                    fig8_labels().join(", ")
                )
            })
    }
}

fn string_array(value: &Value, what: &str) -> Result<Vec<String>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("{what:?} must be an array of strings"))?;
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what:?} must contain only strings"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GridDesc {
        GridDesc {
            workloads: vec!["DP".into(), "MM_256_dop4".into()],
            schedulers: vec![SchedulerKind::Grws, SchedulerKind::Joss],
            seeds: vec![42, 7],
            scale: Scale::Divided(400),
            record_trace: false,
            shard: None,
        }
    }

    #[test]
    fn canonical_json_has_the_documented_shape() {
        assert_eq!(
            sample().to_canonical_json(),
            "{\"workloads\":[\"DP\",\"MM_256_dop4\"],\
             \"schedulers\":[\"grws\",\"joss\"],\
             \"seeds\":[42,7],\"scale\":400,\"record_trace\":false}"
        );
    }

    #[test]
    fn parse_accepts_any_key_order_and_defaults() {
        let desc = GridDesc::from_json(
            "{ \"scale\": \"full\", \"schedulers\": [\"joss\"], \"workloads\": [\"DP\"] }",
        )
        .unwrap();
        assert_eq!(desc.scale, Scale::Full);
        assert!(desc.seeds.is_empty());
        assert!(!desc.record_trace);
        assert_eq!(desc.spec_count(), 1);
    }

    #[test]
    fn parse_rejects_bad_descriptions() {
        for bad in [
            "[]",
            "{}",
            "{\"workloads\":[\"DP\"]}",
            "{\"workloads\":[],\"schedulers\":[\"joss\"]}",
            "{\"workloads\":[\"DP\"],\"schedulers\":[\"nope\"]}",
            "{\"workloads\":[\"DP\"],\"schedulers\":[\"joss\"],\"scale\":0}",
            "{\"workloads\":[\"DP\"],\"schedulers\":[\"joss\"],\"seeds\":[-1]}",
            "{\"workloads\":[\"DP\"],\"schedulers\":[\"joss\"],\"surprise\":1}",
            "{\"workloads\":[1],\"schedulers\":[\"joss\"]}",
        ] {
            assert!(GridDesc::from_json(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn resolve_builds_the_described_grid() {
        let grid = sample().resolve().unwrap();
        assert_eq!(grid.len(), sample().spec_count());
        let specs = grid.build();
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].label(), "DP/GRWS/seed42");
        assert_eq!(specs[7].label(), "MM_256_dop4/JOSS/seed7");
    }

    #[test]
    fn resolve_reports_unknown_workloads() {
        let mut desc = sample();
        desc.workloads.push("NOPE".into());
        let err = desc.resolve().unwrap_err();
        assert!(err.contains("NOPE") && err.contains("DP"), "{err}");
    }

    #[test]
    fn shard_round_trips_and_is_validated() {
        let sharded = sample().with_shard(SpecRange::new(2, 7));
        let json = sharded.to_canonical_json();
        assert!(json.ends_with(",\"shard\":[2,7]}"), "{json}");
        assert_eq!(GridDesc::from_json(&json).unwrap(), sharded);
        // Sharding changes the cache identity but not the base canonical
        // form, which stays exactly what it was before shards existed.
        assert_ne!(sharded.spec_hash(), sample().spec_hash());
        assert!(!sample().to_canonical_json().contains("shard"));
        // Out-of-range or empty shards are rejected loudly.
        for bad in ["[3,3]", "[5,2]", "[0,9]", "[1]", "\"x\"", "[0,-1]"] {
            let text = format!(
                "{{\"workloads\":[\"DP\",\"MM_256_dop4\"],\"schedulers\":[\"grws\",\"joss\"],\
                 \"seeds\":[42,7],\"scale\":400,\"record_trace\":false,\"shard\":{bad}}}"
            );
            assert!(GridDesc::from_json(&text).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn resolve_specs_slices_match_the_full_grid() {
        let desc = sample();
        let full = desc.resolve().unwrap().build();
        let (base, all) = desc.resolve_specs().unwrap();
        assert_eq!(base, 0);
        assert_eq!(all.len(), full.len());
        for (start, end) in [(0, 8), (2, 7), (3, 4), (0, 1), (7, 8), (1, 6)] {
            let (base, slice) = desc
                .with_shard(SpecRange::new(start, end))
                .resolve_specs()
                .unwrap();
            assert_eq!(base, start);
            assert_eq!(slice.len(), end - start);
            for (offset, spec) in slice.iter().enumerate() {
                assert_eq!(spec.label(), full[start + offset].label());
            }
        }
        // The full-grid builder refuses sharded descriptions.
        assert!(desc.with_shard(SpecRange::new(0, 2)).resolve().is_err());
    }

    #[test]
    fn hash_distinguishes_grids_and_ignores_formatting() {
        let a = sample();
        let reformatted = GridDesc::from_json(
            "{\n  \"seeds\": [42, 7],\n  \"scale\": 400,\n  \"record_trace\": false,\n  \
             \"schedulers\": [\"grws\", \"joss\"],\n  \
             \"workloads\": [\"DP\", \"MM_256_dop4\"]\n}",
        )
        .unwrap();
        assert_eq!(a, reformatted);
        assert_eq!(a.spec_hash(), reformatted.spec_hash());
        let mut b = a.clone();
        b.seeds = vec![42];
        assert_ne!(a.spec_hash(), b.spec_hash());
    }
}
