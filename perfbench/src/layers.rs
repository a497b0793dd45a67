//! Layer spans and the per-layer table of a traced pass.
//!
//! The benchmark wraps each call it makes into a layer in [`timed`],
//! named after the layer (`core.session`, `xform`, `sim.mix`, ...).
//! Spans recorded by `sdpm_obs::prof` are collected only while
//! profiling is enabled, so an untraced pass pays one relaxed atomic
//! load per span. Spans the program already records under those calls
//! (`trace.gen.walk`, `session.instrument`, `sim.simulate`, ...) nest
//! inside them and are folded into the same table by [`layer_of`].
//!
//! A layer's self time is the time its spans cover minus the time their
//! child spans cover. `traced.coverage` is the share of all recorded
//! work (layer spans plus the benchmark's own item and experiment spans)
//! that layer spans cover; `bench.dispatch` spans, in which the calling
//! thread only waits for its workers, are not work and are left out.

use std::collections::BTreeMap;

use sdpm_obs::prof::{self, Node, Profile};

/// Runs `f` inside a span named `layer`.
pub fn timed<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = prof::span(layer);
    f()
}

/// The layer a span belongs to; `None` for the benchmark's own spans.
/// `parent` is the layer of the enclosing span: the engine's spans
/// inside a fault-injected call belong to `sim.fault`.
#[must_use]
pub fn layer_of(name: &str, parent: Option<&'static str>) -> Option<&'static str> {
    let layer = match name {
        "trace.gen" | "trace.gen.walk" => "trace.gen",
        "trace.rungen" | "trace.gen.analytic" => "trace.rungen",
        "trace.run" | "trace.lower" | "trace.compress" => "trace.run",
        "trace.codec" | "trace.encode" | "trace.decode" => "trace.codec",
        "trace.mix" => "trace.mix",
        "core.scenario" => "core.scenario",
        "core.session"
        | "session.generate"
        | "session.generate_runs"
        | "session.simulate"
        | "session.simulate_runs" => "core.session",
        "core.insert" | "session.instrument" => "core.insert",
        "xform" => "xform",
        "sim.engine" | "sim.simulate" | "sim.sharded" | "sim.shard.replay" | "sim.shard.worker" => {
            "sim.engine"
        }
        "sim.runs" | "sim.simulate_runs" => "sim.runs",
        "sim.mix" => "sim.mix",
        "sim.fault" => "sim.fault",
        "verify.directive" | "verify.run" | "verify.run_compressed" | "verify.mix" => {
            "verify.directive"
        }
        "verify.symbolic" => "verify.symbolic",
        _ => return None,
    };
    if parent == Some("sim.fault") && layer.starts_with("sim.") {
        return Some("sim.fault");
    }
    Some(layer)
}

/// Aggregates of one layer over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Outermost spans of the layer (a span nested in a span of the same
    /// layer is part of that call).
    pub calls: u64,
    pub self_us: f64,
    /// Counters recorded while a span of this layer was innermost.
    pub counters: BTreeMap<&'static str, u64>,
}

/// The per-layer table of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    pub layers: BTreeMap<&'static str, LayerStats>,
    /// Span calls by raw span name (any layer or none).
    pub span_calls: BTreeMap<&'static str, u64>,
    /// Counters summed over every span, by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Self time of the benchmark's own item and experiment spans.
    pub glue_us: f64,
}

impl LayerTable {
    /// Folds a drained profile into the table.
    #[must_use]
    pub fn from_profile(p: &Profile) -> LayerTable {
        let mut t = LayerTable::default();
        for root in &p.roots {
            t.visit(root, None);
        }
        for (name, v) in &p.orphan_counters {
            *t.counters.entry(name).or_insert(0) += v;
        }
        t
    }

    fn visit(&mut self, n: &Node, parent: Option<&'static str>) {
        let layer = layer_of(n.name, parent);
        let child_us: f64 = n.children.iter().map(|c| c.total_us).sum();
        let self_us = (n.total_us - child_us).max(0.0);
        *self.span_calls.entry(n.name).or_insert(0) += n.calls;
        for (c, v) in &n.counters {
            *self.counters.entry(c).or_insert(0) += v;
        }
        match layer {
            Some(l) => {
                let s = self.layers.entry(l).or_default();
                if parent != Some(l) {
                    s.calls += n.calls;
                }
                s.self_us += self_us;
                for (c, v) in &n.counters {
                    *s.counters.entry(c).or_insert(0) += v;
                }
            }
            None if n.name == "bench.dispatch" => {}
            None => self.glue_us += self_us,
        }
        for c in &n.children {
            self.visit(c, layer);
        }
    }

    fn layer(&self, l: &str) -> LayerStats {
        self.layers.get(l).cloned().unwrap_or_default()
    }

    fn counter(&self, l: &str, c: &str) -> u64 {
        self.layers
            .get(l)
            .and_then(|s| s.counters.get(c))
            .copied()
            .unwrap_or(0)
    }

    fn total(&self, c: &str) -> u64 {
        self.counters.get(c).copied().unwrap_or(0)
    }

    fn calls_of(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .map(|n| self.span_calls.get(n).copied().unwrap_or(0))
            .sum()
    }

    /// Share of recorded work that layer spans cover.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let layer_us: f64 = self.layers.values().map(|s| s.self_us).sum();
        ratio(layer_us, layer_us + self.glue_us)
    }

    /// The `per_layer` metrics of `BENCHMARK.json`, by name, with units.
    /// `traced.overhead_s` is added by the caller, which knows the
    /// untraced wall time.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let secs = |l: &str| self.layer(l).self_us / 1e6;
        let calls = |l: &str| self.layer(l).calls as f64;
        let gen_events = self.counter("trace.gen", "gen.events") as f64;
        let rg_events = self.counter("trace.rungen", "gen.events") as f64;
        let rg_records = self.counter("trace.rungen", "run.records") as f64;
        let codec_bytes = (self.counter("trace.codec", "encode.bytes")
            + self.counter("trace.codec", "decode.bytes")) as f64;
        let runs = (self.calls_of(&["session.simulate", "session.simulate_runs"])
            + self.total("session.mix_runs")) as f64;
        let generations = self.calls_of(&["session.generate", "session.generate_runs"]) as f64;
        let insert_calls =
            self.calls_of(&["session.instrument"]) as f64 + self.calls_of(&["core.insert"]) as f64;
        let engine_events = self.counter("sim.engine", "sim.events") as f64;
        let fault_calls = calls("sim.fault");
        let prove_calls = calls("verify.symbolic");
        vec![
            ("trace.gen.calls", calls("trace.gen"), "count"),
            ("trace.gen.self_s", secs("trace.gen"), "s"),
            ("trace.gen.events", gen_events, "count"),
            ("trace.rungen.calls", calls("trace.rungen"), "count"),
            ("trace.rungen.self_s", secs("trace.rungen"), "s"),
            ("trace.rungen.records", rg_records, "count"),
            (
                "trace.rungen.records_per_event",
                ratio(rg_records, rg_events),
                "ratio",
            ),
            ("trace.run.self_s", secs("trace.run"), "s"),
            ("trace.codec.self_s", secs("trace.codec"), "s"),
            ("trace.codec.bytes", codec_bytes, "B"),
            ("trace.mix.self_s", secs("trace.mix"), "s"),
            ("trace.mix.events", self.total("mix.events") as f64, "count"),
            ("core.scenario.self_s", secs("core.scenario"), "s"),
            ("core.session.runs", runs, "count"),
            ("core.session.generations", generations, "count"),
            (
                "core.session.generations_per_run",
                ratio(generations, runs),
                "ratio",
            ),
            ("core.insert.calls", insert_calls, "count"),
            ("core.insert.self_s", secs("core.insert"), "s"),
            (
                "core.insert.directives",
                self.total("insert.directives") as f64,
                "count",
            ),
            ("xform.calls", calls("xform"), "count"),
            ("xform.self_s", secs("xform"), "s"),
            ("sim.engine.calls", calls("sim.engine"), "count"),
            ("sim.engine.self_s", secs("sim.engine"), "s"),
            ("sim.engine.events", engine_events, "count"),
            (
                "sim.engine.events_per_s",
                ratio(engine_events, secs("sim.engine")),
                "1/s",
            ),
            ("sim.runs.calls", calls("sim.runs"), "count"),
            ("sim.runs.self_s", secs("sim.runs"), "s"),
            (
                "sim.runs.records",
                self.counter("sim.runs", "sim.records") as f64,
                "count",
            ),
            ("sim.mix.calls", calls("sim.mix"), "count"),
            ("sim.mix.self_s", secs("sim.mix"), "s"),
            ("sim.mix.reqs", self.total("mix.reqs") as f64, "count"),
            (
                "sim.mix.misfire_frac",
                ratio(
                    self.total("mix.misfires") as f64,
                    self.total("mix.directives") as f64,
                ),
                "ratio",
            ),
            ("sim.fault.calls", fault_calls, "count"),
            ("sim.fault.self_s", secs("sim.fault"), "s"),
            (
                "sim.fault.injected",
                self.total("fault.injected") as f64,
                "count",
            ),
            (
                "sim.fault.degraded_frac",
                ratio(self.total("fault.degraded") as f64, fault_calls),
                "ratio",
            ),
            (
                "sim.misfire_frac",
                ratio(
                    self.total("sim.misfires") as f64,
                    self.total("sim.directives") as f64,
                ),
                "ratio",
            ),
            ("verify.directive.calls", calls("verify.directive"), "count"),
            ("verify.directive.self_s", secs("verify.directive"), "s"),
            ("verify.symbolic.calls", prove_calls, "count"),
            ("verify.symbolic.self_s", secs("verify.symbolic"), "s"),
            (
                "verify.symbolic.unknown_frac",
                ratio(self.total("prove.unknown") as f64, prove_calls),
                "ratio",
            ),
            ("traced.coverage", self.coverage(), "ratio"),
        ]
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
