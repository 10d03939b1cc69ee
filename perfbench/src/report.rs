//! What one run reports: operation counts, the correctness verdict and
//! named metrics with units, printed by name and then as the final
//! JSON line.

use em_json::Json;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    /// Operations attempted (jobs, requests and output checks).
    pub attempted: usize,
    /// Operations that failed or whose output did not check out.
    pub failed: usize,
    /// Human-readable reasons for each failure.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Count one checked operation; a failed one records `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and
    /// every metric as `{"value", "unit"}`.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
        .compact()
    }
}
