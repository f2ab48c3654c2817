//! A lightweight, name-based call graph over the scanned workspace.
//!
//! The determinism and stream-hygiene rules often fire inside small
//! private helpers (`stamp_ns`, `tally`), where the report line alone
//! does not tell a reader which deterministic-core entry point is
//! contaminated. The call graph answers that: it records every `fn`
//! definition and every `name(` call site from the same token stream
//! the rules already consume, then walks callers backwards so a finding
//! can say "reached from `crates/arch/src/cache.rs::render_report`".
//!
//! Resolution is by *name*, not by type: a call to `update` links to
//! every `fn update` in the walk. That over-approximates — exactly what
//! attribution wants (a false extra caller is noise; a missed caller is
//! a hole) — and keeps the builder zero-dependency and trivially
//! deterministic: all containers are `BTreeMap`/`BTreeSet`, so edge
//! order never depends on hash state or file discovery order.
//!
//! Test code (`#[cfg(test)]`) contributes neither definitions nor
//! edges: reachability from a test is not production reachability.

use crate::scanner::Token;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One `fn` definition site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnDef {
    /// Repo-relative file, forward slashes.
    pub file: String,
    /// The function identifier.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// Keywords and call-like constructs that must not become call edges.
const NOT_CALLS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "macro", "match",
    "mod", "move", "mut", "pub", "ref", "return", "self", "static", "struct", "super",
    "trait", "type", "union", "unsafe", "use", "where", "while", "yield",
];

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Function name → definition sites (names are not unique repo-wide).
    defs: BTreeMap<String, BTreeSet<FnDef>>,
    /// Callee name → (caller file, caller fn) pairs.
    callers: BTreeMap<String, BTreeSet<(String, String)>>,
    /// Caller fn name → callee names: the forward edges, for
    /// [`CallGraph::reachable_from`]. Only calls made from inside a
    /// function body contribute (same rule as `callers`).
    callees: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Fold one tokenized file into the graph.
    pub fn add_file(&mut self, rel: &str, tokens: &[Token]) {
        for (i, t) in tokens.iter().enumerate() {
            if t.in_test {
                continue;
            }
            let Some(word) = t.word() else { continue };
            if word == "fn" {
                if let Some(name) = tokens.get(i + 1).and_then(Token::word) {
                    self.defs.entry(name.to_string()).or_default().insert(FnDef {
                        file: rel.to_string(),
                        name: name.to_string(),
                        line: t.line,
                    });
                }
                continue;
            }
            // A call edge: lowercase identifier immediately followed by
            // `(`, not a keyword, not itself a definition (`fn name(`).
            if !word.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                || NOT_CALLS.contains(&word)
                || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                || (i > 0 && tokens[i - 1].word() == Some("fn"))
            {
                continue;
            }
            // Only calls made *from inside* some function body are edges;
            // const-initializer expressions have no caller to attribute.
            let Some(caller) = t.enclosing_fn.clone() else { continue };
            // A function's self-recursion is not useful attribution.
            if caller == word {
                continue;
            }
            self.callers
                .entry(word.to_string())
                .or_default()
                .insert((rel.to_string(), caller.clone()));
            self.callees.entry(caller).or_default().insert(word.to_string());
        }
    }

    /// All definition sites of `name`, in deterministic order.
    pub fn defs_of(&self, name: &str) -> Vec<&FnDef> {
        self.defs.get(name).map(|s| s.iter().collect()).unwrap_or_default()
    }

    /// Every edge as `(callee, caller_file, caller_fn)`, deterministically
    /// ordered. Exists for tests (edge stability under reformatting).
    pub fn edges(&self) -> Vec<(String, String, String)> {
        self.callers
            .iter()
            .flat_map(|(callee, callers)| {
                callers
                    .iter()
                    .map(move |(file, f)| (callee.clone(), file.clone(), f.clone()))
            })
            .collect()
    }

    /// Transitive callers of `func` as `"file::fn"` strings, breadth
    /// first (direct callers before their callers), capped at `limit`.
    /// Deterministic: ties resolve in `BTreeSet` order.
    pub fn reaching_callers(&self, func: &str, limit: usize) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen_nodes: BTreeSet<(String, String)> = BTreeSet::new();
        let mut visited_names: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        queue.push_back(func.to_string());
        while let Some(name) = queue.pop_front() {
            if out.len() >= limit || !visited_names.insert(name.clone()) {
                continue;
            }
            let Some(callers) = self.callers.get(&name) else { continue };
            for (file, caller) in callers {
                if caller == func {
                    continue;
                }
                if seen_nodes.insert((file.clone(), caller.clone())) {
                    out.push(format!("{file}::{caller}"));
                    if out.len() >= limit {
                        return out;
                    }
                    queue.push_back(caller.clone());
                }
            }
        }
        out
    }

    /// Forward reachability: every function *name* reachable from
    /// `entries` through call edges, including the entries themselves.
    /// `stop` prunes the walk — a stopped name is neither included nor
    /// expanded, which is how callers carve out sanctioned boundaries
    /// (constructors, the arena). Name-based like everything
    /// here, so the set over-approximates: exactly what a "must not
    /// allocate" rule wants (a false extra reachable fn is a finding a
    /// human reviews once; a missed one is a silent hole).
    pub fn reachable_from(
        &self,
        entries: &[&str],
        stop: &dyn Fn(&str) -> bool,
    ) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> =
            entries.iter().map(|s| (*s).to_string()).collect();
        while let Some(name) = queue.pop_front() {
            if stop(&name) || !seen.insert(name.clone()) {
                continue;
            }
            if let Some(callees) = self.callees.get(&name) {
                for callee in callees {
                    if !seen.contains(callee) {
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        seen
    }

    /// True when `tokens` never mention `fn` outside tests — used by the
    /// builder tests to sanity-check fixtures, not by the rules.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty() && self.callers.is_empty()
    }
}

/// Build a graph from already-tokenized files.
pub fn build<'a>(files: impl IntoIterator<Item = (&'a str, &'a [Token])>) -> CallGraph {
    let mut g = CallGraph::default();
    for (rel, tokens) in files {
        g.add_file(rel, tokens);
    }
    g
}

/// Convenience for tests: tokenize source text and fold it in.
pub fn add_source(graph: &mut CallGraph, rel: &str, src: &str) {
    let tokens = crate::scanner::tokenize(&crate::scanner::mask(src));
    graph.add_file(rel, &tokens);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (rel, src) in files {
            add_source(&mut g, rel, src);
        }
        g
    }

    #[test]
    fn direct_calls_become_edges() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn outer() { helper(1); }\nfn helper(x: u32) -> u32 { x }",
        )]);
        assert_eq!(
            g.reaching_callers("helper", 8),
            vec!["crates/a/src/lib.rs::outer"]
        );
    }

    #[test]
    fn transitive_callers_are_breadth_first_and_capped() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )]);
        assert_eq!(
            g.reaching_callers("leaf", 8),
            vec!["crates/a/src/lib.rs::mid", "crates/a/src/lib.rs::top"]
        );
        assert_eq!(g.reaching_callers("leaf", 1), vec!["crates/a/src/lib.rs::mid"]);
    }

    #[test]
    fn cross_file_resolution_is_by_name() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn consumer() { stamp_ns(); }"),
            ("crates/b/src/timing.rs", "pub fn stamp_ns() -> u64 { 0 }"),
        ]);
        assert_eq!(
            g.reaching_callers("stamp_ns", 8),
            vec!["crates/a/src/lib.rs::consumer"]
        );
        assert_eq!(g.defs_of("stamp_ns").len(), 1);
    }

    #[test]
    fn keywords_and_defs_are_not_calls() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn f(x: u32) { if (x > 0) { } match (x) { _ => {} } let y = (x); }",
        )]);
        assert!(g.edges().is_empty(), "edges: {:?}", g.edges());
    }

    #[test]
    fn uppercase_constructors_are_not_calls() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn f() -> Option<u32> { Some(3) }",
        )]);
        assert!(g.edges().is_empty(), "edges: {:?}", g.edges());
    }

    #[test]
    fn test_code_contributes_nothing() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn helper() {}\n#[cfg(test)]\nmod tests { fn t() { helper(); } }",
        )]);
        assert!(g.reaching_callers("helper", 8).is_empty());
    }

    #[test]
    fn self_recursion_is_not_attribution() {
        let g = graph(&[("crates/a/src/lib.rs", "fn gcd(a: u64, b: u64) -> u64 { gcd(b, a) }")]);
        assert!(g.reaching_callers("gcd", 8).is_empty());
    }

    #[test]
    fn forward_reachability_walks_transitively_and_stops_at_boundaries() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn dispatch() { stage(); }\nfn stage() { fill(); new_buf(); }\n\
             fn fill() {}\nfn new_buf() {}\nfn unrelated() { fill(); }",
        )]);
        let reach = g.reachable_from(&["dispatch"], &|n| n.starts_with("new"));
        assert!(reach.contains("dispatch"));
        assert!(reach.contains("stage"));
        assert!(reach.contains("fill"));
        assert!(!reach.contains("new_buf"), "stopped names are excluded");
        assert!(!reach.contains("unrelated"), "callers of shared helpers stay out");
    }

    #[test]
    fn forward_reachability_survives_cycles() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); leaf(); }\nfn leaf() {}",
        )]);
        let reach = g.reachable_from(&["ping"], &|_| false);
        assert!(reach.contains("ping") && reach.contains("pong") && reach.contains("leaf"));
    }

    #[test]
    fn mutual_recursion_terminates() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn ping() { pong(); }\nfn pong() { ping(); }\nfn user() { ping(); }",
        )]);
        let callers = g.reaching_callers("ping", 8);
        assert!(callers.contains(&"crates/a/src/lib.rs::pong".to_string()));
        assert!(callers.contains(&"crates/a/src/lib.rs::user".to_string()));
    }
}
