//! Harvesting the spans and counters the program already records through
//! `trident::obs`: self time per span family, and counter deltas per
//! phase.

use std::collections::BTreeMap;
use trident::obs::{self, Counter, Event};

/// Self time of a span: its duration minus the part of its interval
/// that its direct children cover. Children are found per thread by
/// nesting; overlapping children are counted once, and a child running
/// past its parent's end is clipped to the parent.
pub fn self_times(events: &[Event]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    // Parents before their children: by thread, start, then outermost
    // first (lower depth, then longer).
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.tid, e.start_ns, e.depth, std::cmp::Reverse(e.dur_ns))
    });
    let end = |i: usize| events[i].start_ns.saturating_add(events[i].dur_ns);
    let mut covered = vec![0u64; events.len()];
    let mut covered_until: Vec<u64> = events.iter().map(|e| e.start_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = stack.last() {
            let t = &events[top];
            if t.tid != e.tid || end(top) <= e.start_ns || t.depth >= e.depth {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            let lo = e.start_ns.max(covered_until[parent]);
            let hi = end(i).min(end(parent));
            if hi > lo {
                covered[parent] += hi - lo;
            }
            covered_until[parent] = covered_until[parent].max(hi);
        }
        stack.push(i);
    }
    events
        .iter()
        .zip(&covered)
        .map(|(e, &c)| e.dur_ns.saturating_sub(c))
        .collect()
}

/// The metric family a span belongs to: per-layer labels such as
/// `forward.layer1` or `backward.layer0.outer_product` fold into one
/// family per layer kind.
pub fn family(name: &str) -> Option<&'static str> {
    Some(match name {
        "serve.run" => "serve.run",
        "serve.dispatch" => "serve.dispatch",
        n if n.starts_with("forward.layer") => "arch.forward_layer",
        n if n.starts_with("backward.layer") && n.ends_with(".outer_product") => {
            "arch.outer_product"
        }
        n if n.starts_with("backward.layer") && n.ends_with(".gradient_vector") => {
            "arch.gradient_vector"
        }
        _ => return None,
    })
}

/// Counter sums and span time accumulated over one traced phase.
#[derive(Debug, Default)]
pub struct TraceTally {
    pub counters: BTreeMap<&'static str, u64>,
    /// Span family → (total duration, total self time), nanoseconds.
    pub spans: BTreeMap<&'static str, (u64, u64)>,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

impl TraceTally {
    /// Move everything the global recorder holds into the tally and
    /// reset the recorder, so its bounded event ring never fills.
    pub fn drain(&mut self) {
        let snap = obs::snapshot();
        obs::reset();
        for &c in Counter::ALL {
            *self.counters.entry(c.key()).or_default() += snap.counters.get(c);
        }
        self.spans_recorded += snap.events.len() as u64;
        self.spans_dropped += snap.dropped_events;
        for (e, self_ns) in snap.events.iter().zip(self_times(&snap.events)) {
            if let Some(fam) = family(&e.name) {
                let slot = self.spans.entry(fam).or_default();
                slot.0 += e.dur_ns;
                slot.1 += self_ns;
            }
        }
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c.key()).copied().unwrap_or(0)
    }

    pub fn self_s(&self, fam: &str) -> f64 {
        self.spans.get(fam).map_or(0.0, |&(_, s)| s as f64 * 1e-9)
    }

    pub fn span_s(&self, fam: &str) -> f64 {
        self.spans.get(fam).map_or(0.0, |&(d, _)| d as f64 * 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(tid: u32, depth: u32, start: u64, dur: u64) -> Event {
        Event {
            name: Cow::Borrowed("x"),
            start_ns: start,
            dur_ns: dur,
            tid,
            depth,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[ev(0, 0, 10, 5)]), vec![5]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let events = [
            ev(0, 2, 15, 10),
            ev(0, 1, 10, 30),
            ev(0, 1, 50, 20),
            ev(0, 0, 0, 100),
        ];
        assert_eq!(self_times(&events), vec![10, 20, 20, 50]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children of one parent overlapping on [20,30): union 30.
        let events = [ev(0, 0, 0, 100), ev(0, 1, 10, 20), ev(0, 1, 20, 20)];
        assert_eq!(self_times(&events)[0], 70);
    }

    #[test]
    fn child_past_parent_end_is_clipped() {
        let events = [ev(0, 0, 0, 50), ev(0, 1, 40, 30)];
        assert_eq!(self_times(&events), vec![40, 30]);
    }

    #[test]
    fn other_threads_and_siblings_are_not_children() {
        // A span on another thread inside the same interval, and a later
        // top-level sibling, leave the root's self time untouched.
        let events = [ev(0, 0, 0, 100), ev(1, 0, 10, 50), ev(0, 0, 100, 10)];
        assert_eq!(self_times(&events), vec![100, 50, 10]);
    }

    #[test]
    fn families_fold_per_layer_labels() {
        assert_eq!(family("forward.layer3"), Some("arch.forward_layer"));
        assert_eq!(
            family("backward.layer1.outer_product"),
            Some("arch.outer_product")
        );
        assert_eq!(
            family("backward.layer0.gradient_vector"),
            Some("arch.gradient_vector")
        );
        assert_eq!(family("serve.dispatch"), Some("serve.dispatch"));
        assert_eq!(family("engine.forward"), None);
    }
}
