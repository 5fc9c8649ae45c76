//! `preqr-automaton` — SQL2Automaton (§3.3.1 of the paper).
//!
//! Query structure is represented by a finite-state automaton. A
//! sub-automaton is built for each query template; the final automaton is
//! the merge of all sub-automatons. States are identified by the
//! `(clause region, symbol class, nesting depth)` [`StateKey`] of each
//! linearized token, so templates sharing a prefix automatically share
//! state sequences — the paper's "maximal prefix" merging strategy.
//!
//! Matching a query walks its state-key stream and returns the per-token
//! state ids (the *SQL state embedding* of Table 2); acceptance requires
//! every consecutive transition to have been introduced by some template
//! and the walk to end in a final state.
//!
//! ```
//! use preqr_automaton::Automaton;
//! use preqr_sql::parser::parse;
//! use preqr_sql::normalize::state_keys;
//! use preqr_sql::template::TemplateSet;
//!
//! let corpus = vec![parse("SELECT COUNT(*) FROM title t WHERE t.year > 2000").unwrap()];
//! let templates = TemplateSet::extract(&corpus, 0.0);
//! let fa = Automaton::from_templates(&templates);
//! let m = fa.match_keys(&state_keys(&corpus[0]));
//! assert!(m.accepted);
//! ```

#![warn(missing_docs)]
mod matcher;

pub use matcher::MatchResult;

use std::collections::{HashMap, HashSet};

use preqr_sql::normalize::StateKey;
use preqr_sql::template::TemplateSet;

/// Reserved state id for tokens whose state key was never seen in any
/// template.
pub const UNKNOWN_STATE: usize = 0;

/// The merged finite-state automaton over SQL structure.
#[derive(Clone, Debug, Default)]
pub struct Automaton {
    key_to_state: HashMap<StateKey, usize>,
    state_keys: Vec<Option<StateKey>>,
    transitions: HashSet<(usize, usize)>,
    final_states: HashSet<usize>,
    templates: usize,
}

impl Automaton {
    /// Creates an empty automaton (only the unknown state exists).
    pub fn new() -> Self {
        Self {
            key_to_state: HashMap::new(),
            state_keys: vec![None],
            transitions: HashSet::new(),
            final_states: HashSet::new(),
            templates: 0,
        }
    }

    /// Builds the automaton by merging one sub-automaton per template.
    pub fn from_templates(templates: &TemplateSet) -> Self {
        let mut fa = Self::new();
        for t in templates {
            fa.add_template(&t.keys);
        }
        fa
    }

    /// Adds a sub-automaton for one template's state-key sequence. This is
    /// also the incremental path of §3.6 Case 3 (query patterns change):
    /// new templates extend the automaton without touching existing state
    /// ids, so previously-learned state embeddings stay valid.
    pub fn add_template(&mut self, keys: &[StateKey]) {
        if keys.is_empty() {
            return;
        }
        let ids: Vec<usize> = keys.iter().map(|k| self.intern(*k)).collect();
        for w in ids.windows(2) {
            self.transitions.insert((w[0], w[1]));
        }
        // Allow region-internal repetition: a state may repeat (e.g. the
        // FROM-list table region of Figure 4 covers several tokens).
        for &id in &ids {
            self.transitions.insert((id, id));
        }
        if let Some(&last) = ids.last() {
            self.final_states.insert(last);
        }
        self.templates += 1;
    }

    fn intern(&mut self, key: StateKey) -> usize {
        match self.key_to_state.get(&key) {
            Some(&id) => id,
            None => {
                let id = self.state_keys.len();
                self.key_to_state.insert(key, id);
                self.state_keys.push(Some(key));
                id
            }
        }
    }

    /// State id for a key, or [`UNKNOWN_STATE`].
    pub fn state_of(&self, key: &StateKey) -> usize {
        self.key_to_state.get(key).copied().unwrap_or(UNKNOWN_STATE)
    }

    /// Number of states including the unknown state.
    pub fn num_states(&self) -> usize {
        self.state_keys.len()
    }

    /// Number of templates merged in.
    pub fn num_templates(&self) -> usize {
        self.templates
    }

    /// Whether a transition between two states was introduced by any
    /// template.
    pub fn has_transition(&self, from: usize, to: usize) -> bool {
        self.transitions.contains(&(from, to))
    }

    /// Whether a state is final (some template ends there).
    pub fn is_final(&self, state: usize) -> bool {
        self.final_states.contains(&state)
    }

    /// Matches a query's state-key stream against the automaton; see
    /// [`MatchResult`].
    pub fn match_keys(&self, keys: &[StateKey]) -> MatchResult {
        matcher::match_keys(self, keys)
    }

    /// One-hot encoding of a state id (`num_states` wide).
    pub fn one_hot(&self, state: usize) -> Vec<f32> {
        let mut v = vec![0.0; self.num_states()];
        if state < v.len() {
            v[state] = 1.0;
        }
        v
    }

    /// States that can directly follow the given state (useful for MLM:
    /// the paper notes state transitions "optimize the prediction of mask
    /// words").
    pub fn successors(&self, state: usize) -> Vec<usize> {
        let mut out: Vec<usize> =
            self.transitions.iter().filter(|(f, _)| *f == state).map(|(_, t)| *t).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preqr_sql::normalize::state_keys;
    use preqr_sql::parser::parse;
    use preqr_sql::Query;

    fn q(sql: &str) -> Query {
        parse(sql).unwrap()
    }

    fn fa_of(sqls: &[&str], threshold: f64) -> Automaton {
        let queries: Vec<Query> = sqls.iter().map(|s| q(s)).collect();
        Automaton::from_templates(&TemplateSet::extract(&queries, threshold))
    }

    #[test]
    fn template_query_is_accepted() {
        let fa = fa_of(&["SELECT COUNT(*) FROM title t WHERE t.year > 2000"], 0.0);
        let m = fa.match_keys(&state_keys(&q("SELECT COUNT(*) FROM title t WHERE t.year > 1999")));
        assert!(m.accepted);
        assert_eq!(m.unknown_tokens, 0);
    }

    #[test]
    fn more_tables_and_predicates_still_match_via_repetition() {
        // The automaton allows region-internal repetition, so a query with
        // more joined tables / predicates than the template still walks
        // known states (Figure 4's a4 region spans five tokens).
        let fa = fa_of(
            &["SELECT COUNT(*) FROM title t, movie_companies mc \
               WHERE t.id = mc.movie_id AND t.year > 2000"],
            0.0,
        );
        let bigger = q("SELECT COUNT(*) FROM title t, movie_companies mc, movie_info mi \
                        WHERE t.id = mc.movie_id AND t.id = mi.movie_id AND t.year > 2000");
        let m = fa.match_keys(&state_keys(&bigger));
        assert!(m.accepted, "repetition within regions should be accepted");
    }

    #[test]
    fn logically_equal_in_and_union_share_prefix_states() {
        // Figure 2's q1 and q3: the automaton should give them a shared
        // state prefix and q3 a repeated block (Table 2).
        let q1 = q("SELECT name FROM user WHERE rank IN ('adm', 'sup')");
        let q3 = q("SELECT name FROM user WHERE rank = 'adm' \
                    UNION SELECT name FROM user WHERE rank = 'sup'");
        let queries = vec![q1.clone(), q3.clone()];
        let fa = Automaton::from_templates(&TemplateSet::extract(&queries, 0.0));
        let s1 = fa.match_keys(&state_keys(&q1)).states;
        let s3 = fa.match_keys(&state_keys(&q3)).states;
        // Shared prefix: [CLS] SELECT name FROM user WHERE rank.
        let shared = s1.iter().zip(s3.iter()).take_while(|(a, b)| a == b).count();
        assert!(shared >= 6, "expected long shared prefix, got {shared}");
        // q3's two branches repeat the same state block. After stripping
        // [CLS], the layout is `block1 UNION block2 [END]` with equal-size
        // blocks.
        let states = &s3[1..];
        let n = (states.len() - 2) / 2;
        assert_eq!(&states[..n], &states[n + 1..2 * n + 1]);
    }

    #[test]
    fn unseen_structure_yields_unknown_tokens() {
        let fa = fa_of(&["SELECT COUNT(*) FROM title t WHERE t.year > 2000"], 0.0);
        let m = fa.match_keys(&state_keys(&q(
            "SELECT kind_id FROM title GROUP BY kind_id ORDER BY kind_id",
        )));
        assert!(!m.accepted);
        assert!(m.unknown_tokens > 0);
    }

    #[test]
    fn incremental_template_add_preserves_state_ids() {
        let mut fa = fa_of(&["SELECT COUNT(*) FROM title t WHERE t.year > 2000"], 0.0);
        let before: Vec<usize> = fa
            .match_keys(&state_keys(&q("SELECT COUNT(*) FROM title t WHERE t.year > 2000")))
            .states;
        fa.add_template(&state_keys(&q(
            "SELECT kind_id FROM title GROUP BY kind_id ORDER BY kind_id",
        )));
        let after: Vec<usize> = fa
            .match_keys(&state_keys(&q("SELECT COUNT(*) FROM title t WHERE t.year > 2000")))
            .states;
        assert_eq!(before, after, "existing state ids must be stable");
        let m = fa.match_keys(&state_keys(&q(
            "SELECT kind_id FROM title GROUP BY kind_id ORDER BY kind_id",
        )));
        assert!(m.accepted, "new template should now match");
    }

    #[test]
    fn one_hot_width_tracks_states() {
        let fa = fa_of(&["SELECT * FROM t"], 0.0);
        let v = fa.one_hot(1);
        assert_eq!(v.len(), fa.num_states());
        assert_eq!(v.iter().filter(|&&x| x == 1.0).count(), 1);
        assert!(fa.one_hot(fa.num_states() + 5).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn successors_include_self_loops() {
        let fa = fa_of(&["SELECT * FROM title t, movie_companies mc"], 0.0);
        let table_state =
            fa.match_keys(&state_keys(&q("SELECT * FROM title t, movie_companies mc"))).states[4];
        assert!(fa.successors(table_state).contains(&table_state));
    }

    #[test]
    fn empty_template_is_ignored() {
        let mut fa = Automaton::new();
        fa.add_template(&[]);
        assert_eq!(fa.num_templates(), 0);
        assert_eq!(fa.num_states(), 1);
    }

    #[test]
    fn merged_templates_share_prefix_states() {
        // "Maximal prefix" merging: two templates differing only after the
        // WHERE clause reuse all earlier states.
        let a = q("SELECT COUNT(*) FROM title t WHERE t.year > 2000");
        let b = q("SELECT COUNT(*) FROM title t WHERE t.name LIKE '%x%'");
        let fa = Automaton::from_templates(&TemplateSet::extract(&[a.clone(), b.clone()], 0.0));
        let sa = fa.match_keys(&state_keys(&a)).states;
        let sb = fa.match_keys(&state_keys(&b)).states;
        let shared = sa.iter().zip(sb.iter()).take_while(|(x, y)| x == y).count();
        assert!(shared >= 7, "prefix states must be shared, got {shared}");
    }
}
