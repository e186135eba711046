//! Deterministic fault injection for distributed launches.
//!
//! A [`FaultPlan`] is a *schedule*, not a dice roll: every decision is a
//! pure function of `(seed, launch, device, attempt)` plus the explicit
//! event list, so a chaos run is replayable bit-for-bit from the printed
//! plan — no wall-clock randomness anywhere. Five fault classes are
//! modelled, mirroring what real multi-GPU runtimes see:
//!
//! * **transient shard errors** (ECC hiccup, spurious launch failure):
//!   the shard is retried on the *same* device under the capped
//!   exponential backoff of [`RetryPolicy`];
//! * **device crashes** (XID-class fatal errors): the device is evicted
//!   from the pool's health view and each shard it held runs whole, with
//!   its own program, on a survivor — so the launch keeps the bits of the
//!   fault-free pool. A crash may carry a *flap window* (`crash=d@lxW`):
//!   the fault clears after `W` launches, so a probing executor can
//!   reinstate the device;
//! * **slow links** (degraded PCIe lanes, contended switch): the shard's
//!   modelled H2D transfer is stretched by a factor; past the policy's
//!   timeout the transfer counts as failed and is retried once;
//! * **hangs** (stuck kernel, wedged driver queue): the shard attempt
//!   never completes. A watchdog-enabled executor hedges the shard onto
//!   a healthy device at its modelled deadline; without a watchdog the
//!   hang escalates to a crash;
//! * **corruptions** (bit-flip in device-resident memory): a resident
//!   block's revalidation fingerprint stops matching. The memory pool
//!   detects the mismatch on hit, invalidates the block, and re-uploads
//!   — values are unaffected because shards always compute from host
//!   operands.
//!
//! All five are counted in [`FaultStats`], which the executor
//! accumulates per launch and cumulatively, and which `mdh-runtime`
//! surfaces in its stats line. [`HealPolicy`] configures the self-healing
//! side: the hedge threshold and the probe/reinstatement cadence of the
//! executor's device health state machine.

use std::fmt;

/// SplitMix64 — the only entropy source; a pure function of its input.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Retry discipline for transient faults (and timed-out transfers).
///
/// Backoff is *modelled* (added to the shard's reported execution time),
/// not slept — launch timing in this crate is analytic throughout, and a
/// deterministic model keeps chaos runs replayable and tests fast.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retries allowed per shard per launch before the failure is
    /// escalated to a device crash.
    pub max_retries: u32,
    /// First backoff delay, ms.
    pub base_backoff_ms: f64,
    /// Cap on the exponential growth, ms.
    pub max_backoff_ms: f64,
    /// A slow-link transfer stretched past this is deemed timed out:
    /// it is charged at the timeout and retried once at normal speed.
    pub link_timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 0.5,
            max_backoff_ms: 8.0,
            link_timeout_ms: 50.0,
        }
    }
}

impl RetryPolicy {
    /// Capped exponential backoff before retry number `retry` (0-based):
    /// `base * 2^retry`, capped at `max_backoff_ms`. The doubling count
    /// saturates before it ever becomes a float and a non-finite product
    /// clamps to the cap, so pathological attempt counts or absurd base
    /// delays can never overflow the modelled backoff into `inf`/`NaN`.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        let doublings = retry.min(63);
        let factor = (1u64 << doublings) as f64;
        let raw = self.base_backoff_ms * factor;
        if raw.is_finite() {
            raw.min(self.max_backoff_ms)
        } else {
            self.max_backoff_ms
        }
    }
}

/// Self-healing knobs: the shard watchdog's hedge threshold and the
/// probe/reinstatement cadence of the device health state machine.
///
/// The default policy disables healing entirely (no hedging, no probes):
/// hangs escalate to crashes and evictions are permanent.
#[derive(Debug, Clone, PartialEq)]
pub struct HealPolicy {
    /// Modelled hedge slack, ms: a shard whose modelled completion
    /// exceeds its fault-free time by more than this is speculatively
    /// re-executed on a healthy device and the first completion wins.
    /// `0` disables the watchdog.
    pub hedge_ms: f64,
    /// Probe period in launches: every `probe_every`-th launch sends a
    /// deterministic probe to each out-of-rotation device. `0` disables
    /// probing (evictions stay permanent).
    pub probe_every: u64,
    /// Consecutive passing probes an evicted device needs before it is
    /// reinstated. Probation (hang-suspect) devices always need one.
    pub reinstate_after: u32,
}

impl Default for HealPolicy {
    fn default() -> HealPolicy {
        HealPolicy {
            hedge_ms: 0.0,
            probe_every: 0,
            reinstate_after: 3,
        }
    }
}

impl HealPolicy {
    /// Whether the shard watchdog (hedged re-execution) is active.
    pub fn hedging(&self) -> bool {
        self.hedge_ms > 0.0
    }

    /// Whether out-of-rotation devices are probed for reinstatement.
    pub fn probing(&self) -> bool {
        self.probe_every > 0
    }
}

/// Counters for everything the injector did and the executor recovered
/// from. All fields are monotone when read cumulatively.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient shard failures injected (each costs ≥ 1 retry).
    pub injected_transients: u64,
    /// Fatal device crashes injected.
    pub injected_crashes: u64,
    /// Shard transfers stretched by a slow-link event.
    pub slow_links: u64,
    /// Shard attempts that hung (never completed on their device).
    pub injected_hangs: u64,
    /// Resident-block corruptions detected by pool revalidation.
    pub injected_corruptions: u64,
    /// Shard attempts re-run (transient retries + timed-out transfers).
    pub retries: u64,
    /// Hedged re-executions launched by the shard watchdog.
    pub hedges: u64,
    /// Devices evicted from the pool health view.
    pub evictions: u64,
    /// Devices demoted to probation (hang/straggler suspects).
    pub probations: u64,
    /// Reinstatement probes sent to out-of-rotation devices.
    pub probes: u64,
    /// Devices reinstated into the rotation after passing their probes.
    pub reinstatements: u64,
    /// Shards re-homed, whole, onto a survivor after their device was
    /// lost mid-launch.
    pub repartitions: u64,
}

impl FaultStats {
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }

    /// Accumulate another snapshot into this one (saturating: cumulative
    /// counters must stay monotone, never wrap).
    pub fn absorb(&mut self, other: &FaultStats) {
        self.injected_transients = self
            .injected_transients
            .saturating_add(other.injected_transients);
        self.injected_crashes = self.injected_crashes.saturating_add(other.injected_crashes);
        self.slow_links = self.slow_links.saturating_add(other.slow_links);
        self.injected_hangs = self.injected_hangs.saturating_add(other.injected_hangs);
        self.injected_corruptions = self
            .injected_corruptions
            .saturating_add(other.injected_corruptions);
        self.retries = self.retries.saturating_add(other.retries);
        self.hedges = self.hedges.saturating_add(other.hedges);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.probations = self.probations.saturating_add(other.probations);
        self.probes = self.probes.saturating_add(other.probes);
        self.reinstatements = self.reinstatements.saturating_add(other.reinstatements);
        self.repartitions = self.repartitions.saturating_add(other.repartitions);
    }

    /// Whether any self-healing machinery fired (watchdog or probes).
    pub fn any_healing(&self) -> bool {
        self.hedges != 0 || self.probes != 0 || self.probations != 0 || self.reinstatements != 0
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retries={} evictions={} repartitions={} transients={} crashes={} slow-links={}",
            self.retries,
            self.evictions,
            self.repartitions,
            self.injected_transients,
            self.injected_crashes,
            self.slow_links
        )?;
        if self.injected_hangs != 0 || self.hedges != 0 {
            write!(f, " hangs={} hedges={}", self.injected_hangs, self.hedges)?;
        }
        if self.injected_corruptions != 0 {
            write!(f, " corruptions={}", self.injected_corruptions)?;
        }
        if self.probes != 0 || self.probations != 0 || self.reinstatements != 0 {
            write!(
                f,
                " probes={} probations={} reinstatements={}",
                self.probes, self.probations, self.reinstatements
            )?;
        }
        Ok(())
    }
}

/// A deterministic, replayable schedule of injected faults.
///
/// Explicit events pin a fault to a `(device, launch)` pair; the seeded
/// channel additionally makes each device's first attempt of each launch
/// fail transiently with probability `rate` per mille, derived by
/// hashing `(seed, launch, device)` — same seed, same chaos.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the derived-transient channel (printed for replay).
    pub seed: u64,
    /// Per-mille probability that a `(launch, device)` first attempt
    /// fails transiently under the seeded channel (0 disables it).
    pub transient_permille: u16,
    /// `(device, launch, down_for)`: the device dies when first used at
    /// or after `launch`. `down_for == 0` means permanently; a nonzero
    /// window is a *flap* — the fault clears `down_for` launches later,
    /// so reinstatement probes start passing.
    crashes: Vec<(usize, u64, u64)>,
    /// `(device, launch, count)`: the first `count` attempts fail.
    transients: Vec<(usize, u64, u32)>,
    /// `(device, launch, factor)`: the H2D transfer is stretched ×factor.
    slow: Vec<(usize, u64, u32)>,
    /// `(device, launch)`: the shard attempt at `launch` never completes.
    hangs: Vec<(usize, u64)>,
    /// `(device, launch)`: the device's resident blocks are corrupted at
    /// `launch` — every pool hit on it that launch fails revalidation.
    corrupt: Vec<(usize, u64)>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Seeded chaos: each `(launch, device)` first attempt fails
    /// transiently with probability `permille`/1000.
    pub fn seeded(seed: u64, permille: u16) -> FaultPlan {
        FaultPlan {
            seed,
            transient_permille: permille.min(1000),
            ..FaultPlan::default()
        }
    }

    /// Schedule a permanent crash of `device` at `launch`.
    pub fn crash(mut self, device: usize, launch: u64) -> FaultPlan {
        self.crashes.push((device, launch, 0));
        self
    }

    /// Schedule a *flap*: `device` crashes at `launch` but the fault
    /// clears `down_for` launches later, so a probing executor can
    /// reinstate it.
    pub fn flap(mut self, device: usize, launch: u64, down_for: u64) -> FaultPlan {
        self.crashes.push((device, launch, down_for.max(1)));
        self
    }

    /// Schedule a hang: `device`'s shard attempt at `launch` never
    /// completes (the watchdog hedges it; without a watchdog it
    /// escalates to a crash).
    pub fn hang(mut self, device: usize, launch: u64) -> FaultPlan {
        self.hangs.push((device, launch));
        self
    }

    /// Schedule a resident-memory corruption on `device` at `launch`:
    /// pool hits on that device fail revalidation that launch.
    pub fn corrupt(mut self, device: usize, launch: u64) -> FaultPlan {
        self.corrupt.push((device, launch));
        self
    }

    /// Schedule `count` failing attempts for `device` at `launch`.
    pub fn transient(mut self, device: usize, launch: u64, count: u32) -> FaultPlan {
        self.transients.push((device, launch, count));
        self
    }

    /// Stretch `device`'s H2D transfer at `launch` by ×`factor`.
    pub fn slow(mut self, device: usize, launch: u64, factor: u32) -> FaultPlan {
        self.slow.push((device, launch, factor.max(2)));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.transient_permille == 0
            && self.crashes.is_empty()
            && self.transients.is_empty()
            && self.slow.is_empty()
            && self.hangs.is_empty()
            && self.corrupt.is_empty()
    }

    /// Devices with a scheduled crash (deduplicated, any launch).
    pub fn crash_devices(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.crashes.iter().map(|&(d, _, _)| d).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }

    /// Does `device` die when used at `launch`? A windowless crash is
    /// permanent (any entry at an earlier-or-equal launch applies); a
    /// flap clears once `launch` passes the end of its down window.
    pub fn crash_due(&self, device: usize, launch: u64) -> bool {
        self.crashes.iter().any(|&(d, l, down)| {
            d == device && l <= launch && (down == 0 || launch < l.saturating_add(down))
        })
    }

    /// Does `device`'s shard attempt at `launch` hang (never complete)?
    pub fn hang_due(&self, device: usize, launch: u64) -> bool {
        self.hangs.iter().any(|&(d, l)| d == device && l == launch)
    }

    /// Are `device`'s resident blocks corrupted at `launch` (pool hits
    /// fail revalidation)?
    pub fn corrupt_due(&self, device: usize, launch: u64) -> bool {
        self.corrupt
            .iter()
            .any(|&(d, l)| d == device && l == launch)
    }

    /// Does attempt number `attempt` (0-based) of `device` at `launch`
    /// fail transiently?
    pub fn transient_fails(&self, device: usize, launch: u64, attempt: u32) -> bool {
        let explicit = self
            .transients
            .iter()
            .any(|&(d, l, count)| d == device && l == launch && attempt < count);
        if explicit {
            return true;
        }
        if self.transient_permille > 0 && attempt == 0 {
            let h = splitmix64(
                self.seed
                    ^ launch.wrapping_mul(0xA24B_AED4_963E_E407)
                    ^ (device as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
            );
            return (h % 1000) < u64::from(self.transient_permille);
        }
        false
    }

    /// Slow-link stretch factor for `device`'s transfer at `launch`.
    pub fn slow_factor(&self, device: usize, launch: u64) -> Option<u32> {
        self.slow
            .iter()
            .find(|&&(d, l, _)| d == device && l == launch)
            .map(|&(_, _, f)| f)
    }

    /// Parse the `mdhc serve --faults` spec grammar:
    ///
    /// ```text
    /// spec  := item (',' item)*
    /// item  := 'seed=' u64                    seed for the derived channel
    ///        | 'rate=' permille               derived transient rate (0..=1000)
    ///        | 'crash=' dev '@' launch ['x' down]   device dies at launch
    ///        |                                (with 'x': flaps — clears after down launches)
    ///        | 'transient=' dev '@' launch ['x' count]
    ///        | 'slow=' dev '@' launch ['x' factor]
    ///        | 'hang=' dev '@' launch         shard attempt never completes
    ///        | 'corrupt=' dev '@' launch      resident blocks fail revalidation
    /// ```
    ///
    /// Example: `crash=1@3x4,hang=2@5,corrupt=0@6,transient=2@1x2,rate=25,seed=42`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let item = item.trim();
            let (key, val) = item
                .split_once('=')
                .ok_or_else(|| format!("bad fault item '{item}' (expected key=value)"))?;
            match key {
                "seed" => {
                    plan.seed = val
                        .parse()
                        .map_err(|_| format!("bad seed '{val}' (expected u64)"))?;
                }
                "rate" => {
                    let p: u16 = val
                        .parse()
                        .map_err(|_| format!("bad rate '{val}' (expected 0..=1000 per mille)"))?;
                    if p > 1000 {
                        return Err(format!("rate {p} out of range (per mille, 0..=1000)"));
                    }
                    plan.transient_permille = p;
                }
                "crash" => {
                    let (rest, down) = parse_x_suffix(val)?;
                    let (d, l) = parse_dev_at_launch(rest)?;
                    plan.crashes.push((d, l, u64::from(down.unwrap_or(0))));
                }
                "transient" => {
                    let (rest, count) = parse_x_suffix(val)?;
                    let (d, l) = parse_dev_at_launch(rest)?;
                    plan.transients.push((d, l, count.unwrap_or(1)));
                }
                "slow" => {
                    let (rest, factor) = parse_x_suffix(val)?;
                    let (d, l) = parse_dev_at_launch(rest)?;
                    plan.slow.push((d, l, factor.unwrap_or(4).max(2)));
                }
                "hang" => {
                    let (d, l) = parse_dev_at_launch(val)?;
                    plan.hangs.push((d, l));
                }
                "corrupt" => {
                    let (d, l) = parse_dev_at_launch(val)?;
                    plan.corrupt.push((d, l));
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            }
        }
        Ok(plan)
    }
}

fn parse_dev_at_launch(s: &str) -> Result<(usize, u64), String> {
    let (d, l) = s
        .split_once('@')
        .ok_or_else(|| format!("bad fault target '{s}' (expected device@launch)"))?;
    let d = d
        .parse()
        .map_err(|_| format!("bad device index '{d}' in '{s}'"))?;
    let l = l
        .parse()
        .map_err(|_| format!("bad launch index '{l}' in '{s}'"))?;
    Ok((d, l))
}

/// Split an optional `x<count>` suffix off `dev@launch[x<count>]`.
fn parse_x_suffix(s: &str) -> Result<(&str, Option<u32>), String> {
    // the 'x' separator can only follow the launch number, so split at
    // the last 'x' after the '@'
    let Some(at) = s.find('@') else {
        return Ok((s, None));
    };
    match s[at..].find('x') {
        Some(rel) => {
            let pos = at + rel;
            let n = s[pos + 1..]
                .parse()
                .map_err(|_| format!("bad count/factor in '{s}'"))?;
            Ok((&s[..pos], Some(n)))
        }
        None => Ok((s, None)),
    }
}

/// Canonical round-trippable spec — `FaultPlan::parse(plan.to_string())`
/// reproduces the plan, which is what makes a printed plan a replay
/// ticket.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut items = Vec::new();
        if self.seed != 0 {
            items.push(format!("seed={}", self.seed));
        }
        if self.transient_permille != 0 {
            items.push(format!("rate={}", self.transient_permille));
        }
        for &(d, l, down) in &self.crashes {
            if down == 0 {
                items.push(format!("crash={d}@{l}"));
            } else {
                items.push(format!("crash={d}@{l}x{down}"));
            }
        }
        for &(d, l, c) in &self.transients {
            items.push(format!("transient={d}@{l}x{c}"));
        }
        for &(d, l, x) in &self.slow {
            items.push(format!("slow={d}@{l}x{x}"));
        }
        for &(d, l) in &self.hangs {
            items.push(format!("hang={d}@{l}"));
        }
        for &(d, l) in &self.corrupt {
            items.push(format!("corrupt={d}@{l}"));
        }
        if items.is_empty() {
            f.write_str("none")
        } else {
            f.write_str(&items.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        for launch in 0..16 {
            for dev in 0..8 {
                assert!(!p.crash_due(dev, launch));
                assert!(!p.transient_fails(dev, launch, 0));
                assert!(p.slow_factor(dev, launch).is_none());
                assert!(!p.hang_due(dev, launch));
                assert!(!p.corrupt_due(dev, launch));
            }
        }
        assert_eq!(p.to_string(), "none");
    }

    #[test]
    fn flap_windows_clear_after_their_down_period() {
        let p = FaultPlan::none().flap(1, 3, 2);
        assert!(!p.crash_due(1, 2), "not down yet");
        assert!(p.crash_due(1, 3), "down at the flap launch");
        assert!(p.crash_due(1, 4), "still down inside the window");
        assert!(!p.crash_due(1, 5), "window elapsed: the fault cleared");
        assert!(!p.crash_due(0, 3), "other devices unaffected");
        // a permanent crash alongside a flap stays permanent
        let q = FaultPlan::none().flap(1, 3, 2).crash(1, 10);
        assert!(!q.crash_due(1, 6));
        assert!(q.crash_due(1, 10) && q.crash_due(1, 1000));
    }

    #[test]
    fn hang_and_corrupt_are_single_launch_events() {
        let p = FaultPlan::none().hang(2, 4).corrupt(0, 7);
        assert!(p.hang_due(2, 4));
        assert!(!p.hang_due(2, 3) && !p.hang_due(2, 5));
        assert!(!p.hang_due(1, 4));
        assert!(p.corrupt_due(0, 7));
        assert!(!p.corrupt_due(0, 6) && !p.corrupt_due(0, 8));
        assert!(!p.corrupt_due(2, 7));
        assert!(!p.is_empty());
    }

    #[test]
    fn crashes_are_permanent_from_their_launch() {
        let p = FaultPlan::none().crash(2, 5);
        assert!(!p.crash_due(2, 4));
        assert!(p.crash_due(2, 5));
        assert!(p.crash_due(2, 99));
        assert!(!p.crash_due(1, 99));
        assert_eq!(p.crash_devices(), vec![2]);
    }

    #[test]
    fn explicit_transients_fail_exactly_count_attempts() {
        let p = FaultPlan::none().transient(1, 3, 2);
        assert!(p.transient_fails(1, 3, 0));
        assert!(p.transient_fails(1, 3, 1));
        assert!(!p.transient_fails(1, 3, 2));
        assert!(!p.transient_fails(1, 2, 0));
        assert!(!p.transient_fails(0, 3, 0));
    }

    #[test]
    fn seeded_channel_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 500);
        let b = FaultPlan::seeded(42, 500);
        let c = FaultPlan::seeded(43, 500);
        let pattern = |p: &FaultPlan| {
            (0..64)
                .flat_map(|l| (0..4).map(move |d| (l, d)))
                .map(|(l, d)| p.transient_fails(d, l, 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(pattern(&a), pattern(&b), "same seed, same chaos");
        assert_ne!(pattern(&a), pattern(&c), "different seed, different chaos");
        // at 50% the pattern must actually contain both outcomes
        assert!(pattern(&a).iter().any(|&x| x));
        assert!(pattern(&a).iter().any(|&x| !x));
        // later attempts never fail under the seeded channel
        assert!((0..64).all(|l| !a.transient_fails(0, l, 1)));
    }

    #[test]
    fn spec_round_trips_through_display() {
        let p = FaultPlan::seeded(42, 25)
            .crash(1, 3)
            .crash(3, 6)
            .flap(2, 4, 3)
            .transient(2, 1, 2)
            .slow(0, 2, 8)
            .hang(1, 5)
            .corrupt(0, 6);
        let spec = p.to_string();
        assert_eq!(FaultPlan::parse(&spec).unwrap(), p, "spec: {spec}");
        assert!(spec.contains("crash=2@4x3"), "flap window printed: {spec}");
        assert!(spec.contains("hang=1@5"), "{spec}");
        assert!(spec.contains("corrupt=0@6"), "{spec}");
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let p = FaultPlan::parse(
            "crash=1@3, transient=2@1x2, slow=0@2x8, hang=3@4, corrupt=1@5, rate=25, seed=7",
        )
        .expect("parses");
        assert!(p.crash_due(1, 3));
        assert!(p.transient_fails(2, 1, 1));
        assert_eq!(p.slow_factor(0, 2), Some(8));
        assert!(p.hang_due(3, 4));
        assert!(p.corrupt_due(1, 5));
        assert_eq!(p.transient_permille, 25);
        assert_eq!(p.seed, 7);
        // a crash with an x-suffix is a flap: it clears after the window
        let flap = FaultPlan::parse("crash=1@3x2").unwrap();
        assert!(flap.crash_due(1, 4));
        assert!(!flap.crash_due(1, 5));
        // defaults: transient count 1, slow factor 4
        let q = FaultPlan::parse("transient=0@0,slow=1@1").unwrap();
        assert!(q.transient_fails(0, 0, 0));
        assert!(!q.transient_fails(0, 0, 1));
        assert_eq!(q.slow_factor(1, 1), Some(4));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "crash=1",
            "crash=x@3",
            "boom=1@2",
            "rate=1001",
            "seed=abc",
            "transient=1@2xq",
            "hang=3",
            "hang=a@1",
            "corrupt=@2",
            "crash=1@2xz",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_ms(0), 0.5);
        assert_eq!(r.backoff_ms(1), 1.0);
        assert_eq!(r.backoff_ms(2), 2.0);
        assert_eq!(r.backoff_ms(10), 8.0, "capped");
    }

    #[test]
    fn backoff_saturates_at_pathological_boundaries() {
        // attempt counts far beyond any retry budget must clamp to the
        // cap, never overflow the doubling into inf/NaN
        let r = RetryPolicy::default();
        for retry in [31, 32, 63, 64, 1 << 20, u32::MAX] {
            let b = r.backoff_ms(retry);
            assert!(b.is_finite(), "retry={retry} gave {b}");
            assert_eq!(b, r.max_backoff_ms, "retry={retry}");
        }
        // an absurd base delay whose doubled product is non-finite still
        // clamps to the cap instead of propagating inf
        let huge = RetryPolicy {
            base_backoff_ms: f64::MAX,
            max_backoff_ms: 8.0,
            ..RetryPolicy::default()
        };
        for retry in [0, 1, 2, 63, u32::MAX] {
            assert_eq!(huge.backoff_ms(retry), 8.0, "retry={retry}");
        }
        // and a zero-base policy stays exactly zero at every attempt
        let zero = RetryPolicy {
            base_backoff_ms: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.backoff_ms(u32::MAX), 0.0);
    }

    #[test]
    fn heal_policy_defaults_disable_healing() {
        let h = HealPolicy::default();
        assert!(!h.hedging(), "watchdog off by default");
        assert!(!h.probing(), "probes off by default");
        let on = HealPolicy {
            hedge_ms: 0.5,
            probe_every: 4,
            reinstate_after: 2,
        };
        assert!(on.hedging() && on.probing());
    }

    #[test]
    fn stats_absorb_and_display() {
        let mut a = FaultStats {
            retries: 1,
            evictions: 2,
            ..FaultStats::default()
        };
        let b = FaultStats {
            retries: 3,
            repartitions: 1,
            injected_hangs: 1,
            hedges: 1,
            probes: 5,
            probations: 1,
            reinstatements: 1,
            injected_corruptions: 2,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.retries, 4);
        assert_eq!(a.evictions, 2);
        assert_eq!(a.repartitions, 1);
        assert_eq!(a.hedges, 1);
        assert_eq!(a.probes, 5);
        assert!(!a.is_zero());
        assert!(a.any_healing());
        assert!(!FaultStats::default().any_healing());
        assert!(FaultStats::default().is_zero());
        let line = a.to_string();
        assert!(line.contains("retries=4"), "{line}");
        assert!(line.contains("evictions=2"), "{line}");
        assert!(line.contains("hangs=1 hedges=1"), "{line}");
        assert!(line.contains("corruptions=2"), "{line}");
        assert!(
            line.contains("probes=5 probations=1 reinstatements=1"),
            "{line}"
        );
        // the healing suffix stays out of fault lines that never healed
        let quiet = FaultStats {
            retries: 2,
            ..FaultStats::default()
        };
        let qline = quiet.to_string();
        assert!(!qline.contains("hedges"), "{qline}");
        assert!(!qline.contains("probes"), "{qline}");
    }

    #[test]
    fn absorb_saturates_instead_of_wrapping() {
        let mut a = FaultStats {
            retries: u64::MAX - 1,
            ..FaultStats::default()
        };
        a.absorb(&FaultStats {
            retries: 5,
            ..FaultStats::default()
        });
        assert_eq!(a.retries, u64::MAX, "monotone under saturation");
    }
}
