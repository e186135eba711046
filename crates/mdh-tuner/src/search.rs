//! Search techniques over constraint-based spaces.
//!
//! The paper tunes with ATF for 12 hours; we expose the same machinery
//! with evaluation-count budgets. Techniques: exhaustive enumeration,
//! random sampling, hill climbing over the one-parameter-change
//! neighbourhood, and simulated annealing.

use crate::space::{Config, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Search technique selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    Exhaustive,
    Random,
    HillClimb,
    Annealing,
}

/// Tuning budget: maximum number of cost evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    pub max_evals: usize,
}

impl Budget {
    pub fn evals(n: usize) -> Budget {
        Budget {
            max_evals: n.max(1),
        }
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub config: Config,
    /// `None` = the configuration failed (compile error, out of
    /// resources, invalid schedule); failures still consume budget, as
    /// they do in real auto-tuning.
    pub cost: Option<f64>,
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningResult {
    pub best: Option<(Config, f64)>,
    pub history: Vec<Sample>,
    pub evals: usize,
}

impl TuningResult {
    pub fn best_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, c)| *c)
    }
}

/// The tuner: a space, a technique, and a budget.
pub struct Tuner {
    pub space: SearchSpace,
    pub technique: Technique,
    pub budget: Budget,
    pub seed: u64,
}

impl Tuner {
    pub fn new(space: SearchSpace, technique: Technique, budget: Budget) -> Tuner {
        Tuner {
            space,
            technique,
            budget,
            seed: 0x5eed,
        }
    }

    /// Run the search. `cost` returns `None` for failing configurations.
    pub fn tune(&self, mut cost: impl FnMut(&Config) -> Option<f64>) -> TuningResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut history: Vec<Sample> = Vec::new();
        let mut best: Option<(Config, f64)> = None;
        let mut evals = 0usize;

        let mut try_eval = |cfg: Config,
                            history: &mut Vec<Sample>,
                            best: &mut Option<(Config, f64)>,
                            evals: &mut usize|
         -> Option<f64> {
            if *evals >= self.budget.max_evals {
                return None;
            }
            *evals += 1;
            let c = cost(&cfg);
            history.push(Sample {
                config: cfg.clone(),
                cost: c,
            });
            if let Some(c) = c {
                if best.as_ref().map(|(_, b)| c < *b).unwrap_or(true) {
                    *best = Some((cfg, c));
                }
            }
            c
        };

        match self.technique {
            Technique::Exhaustive => {
                for cfg in self.space.enumerate(self.budget.max_evals) {
                    if evals >= self.budget.max_evals {
                        break;
                    }
                    try_eval(cfg, &mut history, &mut best, &mut evals);
                }
            }
            Technique::Random => {
                while evals < self.budget.max_evals {
                    let Some(cfg) = self.space.sample(&mut rng, 32) else {
                        break;
                    };
                    try_eval(cfg, &mut history, &mut best, &mut evals);
                }
            }
            Technique::HillClimb => {
                // random restarts around greedy descent
                while evals < self.budget.max_evals {
                    let Some(start) = self.space.sample(&mut rng, 32) else {
                        break;
                    };
                    let mut cur = start.clone();
                    let mut cur_cost = try_eval(cur.clone(), &mut history, &mut best, &mut evals);
                    loop {
                        if evals >= self.budget.max_evals {
                            break;
                        }
                        let mut improved = false;
                        for n in self.space.neighbors(&cur) {
                            if evals >= self.budget.max_evals {
                                break;
                            }
                            let c = try_eval(n.clone(), &mut history, &mut best, &mut evals);
                            if let (Some(c), Some(cc)) = (c, cur_cost) {
                                if c < cc {
                                    cur = n;
                                    cur_cost = Some(c);
                                    improved = true;
                                    break;
                                }
                            } else if c.is_some() && cur_cost.is_none() {
                                cur = n;
                                cur_cost = c;
                                improved = true;
                                break;
                            }
                        }
                        if !improved {
                            break;
                        }
                    }
                }
            }
            Technique::Annealing => {
                let Some(mut cur) = self.space.sample(&mut rng, 32) else {
                    return TuningResult {
                        best,
                        history,
                        evals,
                    };
                };
                let mut cur_cost = try_eval(cur.clone(), &mut history, &mut best, &mut evals);
                let total = self.budget.max_evals as f64;
                while evals < self.budget.max_evals {
                    let temp = 1.0 - (evals as f64 / total);
                    let cand = {
                        let ns = self.space.neighbors(&cur);
                        if ns.is_empty() || rng.gen_bool(0.15) {
                            match self.space.sample(&mut rng, 32) {
                                Some(c) => c,
                                None => break,
                            }
                        } else {
                            ns[rng.gen_range(0..ns.len())].clone()
                        }
                    };
                    let c = try_eval(cand.clone(), &mut history, &mut best, &mut evals);
                    match (c, cur_cost) {
                        (Some(c), Some(cc)) => {
                            let accept = c < cc || {
                                let delta = (c - cc) / cc.max(1e-12);
                                rng.gen_bool((-delta / temp.max(1e-3)).exp().clamp(0.0, 1.0))
                            };
                            if accept {
                                cur = cand;
                                cur_cost = Some(c);
                            }
                        }
                        (Some(_), None) => {
                            cur = cand;
                            cur_cost = c;
                        }
                        _ => {}
                    }
                }
            }
        }
        TuningResult {
            best,
            history,
            evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::TunableParam;

    /// Convex-ish test space: cost = (x-13)^2 + (y-5)^2, y <= x.
    fn space() -> SearchSpace {
        let mut s = SearchSpace::new();
        s.add(TunableParam::new("x", (1..=32).collect()));
        s.add(TunableParam::constrained(
            "y",
            (1..=32).collect(),
            |prefix, v| v <= prefix[0],
        ));
        s
    }

    fn cost(c: &Config) -> Option<f64> {
        let (x, y) = (c[0] as f64, c[1] as f64);
        Some((x - 13.0).powi(2) + (y - 5.0).powi(2))
    }

    #[test]
    fn exhaustive_finds_optimum() {
        let t = Tuner::new(space(), Technique::Exhaustive, Budget::evals(100_000));
        let r = t.tune(cost);
        assert_eq!(r.best.unwrap().0, vec![13, 5]);
    }

    #[test]
    fn exhaustive_respects_budget() {
        let t = Tuner::new(space(), Technique::Exhaustive, Budget::evals(10));
        let r = t.tune(cost);
        assert_eq!(r.evals, 10);
        assert_eq!(r.history.len(), 10);
    }

    #[test]
    fn random_improves_over_budget() {
        let t = Tuner::new(space(), Technique::Random, Budget::evals(200));
        let r = t.tune(cost);
        assert!(r.best_cost().unwrap() < 50.0);
    }

    #[test]
    fn hillclimb_reaches_near_optimum() {
        let t = Tuner::new(space(), Technique::HillClimb, Budget::evals(400));
        let r = t.tune(cost);
        assert!(r.best_cost().unwrap() <= 2.0, "{:?}", r.best);
    }

    #[test]
    fn annealing_reaches_near_optimum() {
        let t = Tuner::new(space(), Technique::Annealing, Budget::evals(600));
        let r = t.tune(cost);
        assert!(r.best_cost().unwrap() <= 4.0, "{:?}", r.best);
    }

    #[test]
    fn failures_consume_budget_but_never_win() {
        let t = Tuner::new(space(), Technique::Random, Budget::evals(100));
        let r = t.tune(|c| {
            if c[0] % 2 == 0 {
                None // "out of resources"
            } else {
                cost(c)
            }
        });
        assert_eq!(r.evals, 100);
        let (best_cfg, _) = r.best.unwrap();
        assert_eq!(best_cfg[0] % 2, 1);
        assert!(r.history.iter().any(|s| s.cost.is_none()));
    }

    #[test]
    fn all_failures_yield_no_best() {
        let t = Tuner::new(space(), Technique::Random, Budget::evals(20));
        let r = t.tune(|_| None);
        assert!(r.best.is_none());
        assert_eq!(r.evals, 20);
    }
}
