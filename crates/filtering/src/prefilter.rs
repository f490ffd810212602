//! Stage 0 of the staged matching pipeline: per-event pre-filtering.
//!
//! Before any predicate counting happens, the pre-filter kills candidate
//! subscriptions that *provably cannot match* an event, using two cheap
//! per-subscription tests:
//!
//! 1. **Attribute presence.** Every *required* predicate leaf of a
//!    subscription (a leaf that must be true for the whole tree to be true)
//!    names an attribute the event must carry: a predicate on an absent
//!    attribute evaluates to `false` for every operator. The required
//!    attributes of up to 64 tracked attributes are folded into one `u64`
//!    bitmask per subscription, and an event is fingerprinted once into the
//!    same bit space — the presence test is `required & !present != 0`.
//! 2. **Discrimination keys.** Among a subscription's required *equality*
//!    leaves, the two most selective ones (per the sampled
//!    [`DiscriminationHint`](selectivity::DiscriminationHint), falling back
//!    to the local equality-index cardinality) are compiled to interned
//!    constant ids. The event's values for those attributes are interned
//!    through the same table during fingerprinting; a mismatch on either
//!    means a required equality cannot hold, so the subscription is dead for
//!    this event. The second key is what separates subscriptions that agree
//!    on a hot primary key (e.g. a Zipf-popular title) but disagree on a
//!    secondary equality (condition, buy-now flag, ...).
//! 3. **Disjunctive signature.** A required `Or` whose children are all
//!    equalities on *one* attribute (`category = a ∨ category = b ∨ ...`)
//!    requires that attribute present with a value from the allowed set. The
//!    allowed constants are folded into a 64-bit signature over their
//!    interned ids; an event key whose bit is absent provably satisfies no
//!    child, so the subscription dies. Hash collisions only let candidates
//!    *survive* (one-sided error), never kill a real match.
//!
//! *Required* leaves are found by a conservative tree walk: the root is
//! required; every child of a required `And` is required; the only child of a
//! required single-child `Or` is required; nothing under a `Not` (or a
//! multi-child `Or`) is claimed. This under-approximates — it never marks a
//! leaf required unless its falsehood forces the tree false — which is what
//! makes the kill sound for *any* Boolean structure.
//!
//! Both tests reject without touching the attribute index, the counting
//! arrays, or the subscription tree; surviving candidates flow into stage 1
//! (index probing) and stage 2 (counting) unchanged, so match output is
//! byte-identical with the pre-filter on or off.

use crate::config::PrefilterMode;
use crate::index::{AttributeIndex, EqKey};
use pubsub_core::{AttrId, NodeId, NodeKind, Predicate, Subscription, SubscriptionTree, Value};
use selectivity::DiscriminationHint;
use std::collections::HashMap;

/// Sentinel bit for attributes outside the tracked set.
const NO_BIT: u8 = u8::MAX;
/// Sentinel key for event values that match no registered equality constant
/// (or are not internable, e.g. `NaN`).
const NO_KEY: u32 = u32::MAX;
/// Width of the presence bitmask: at most this many attributes are tracked.
const MAX_TRACKED: usize = 64;

/// Per-subscription compiled stage-0 filter.
#[derive(Debug, Clone, Copy)]
struct SlotFilter {
    /// Bits of tracked attributes this subscription requires present.
    required_mask: u64,
    /// Bit of the primary discrimination attribute, or [`NO_BIT`] when the
    /// subscription has no required internable equality on a tracked
    /// attribute.
    disc_bit: u8,
    /// Interned constant the primary discrimination attribute must carry.
    disc_key: u32,
    /// Bit of the secondary discrimination attribute ([`NO_BIT`] when the
    /// subscription has fewer than two required internable equalities).
    disc2_bit: u8,
    /// Interned constant the secondary discrimination attribute must carry.
    disc2_key: u32,
    /// Bit of the disjunctive-signature attribute ([`NO_BIT`] when the
    /// subscription has no required single-attribute equality `Or`).
    sig_bit: u8,
    /// Signature of the interned constants the signature attribute may
    /// carry: bit `id & 63` is set for each allowed constant id.
    sig: u64,
}

impl Default for SlotFilter {
    fn default() -> Self {
        // The default filter kills nothing.
        Self {
            required_mask: 0,
            disc_bit: NO_BIT,
            disc_key: NO_KEY,
            disc2_bit: NO_BIT,
            disc2_key: NO_KEY,
            sig_bit: NO_BIT,
            sig: 0,
        }
    }
}

/// The stage-0 pre-filter of a [`CountingEngine`](crate::CountingEngine).
///
/// Rebuilt lazily whenever the subscription set, the engine configuration,
/// or the discrimination hint changes; queried once per `(event, candidate)`
/// emission on the hot path. See the module docs for the semantics.
#[derive(Debug, Default)]
pub struct PreFilter {
    /// Whether stage 0 runs at all (resolved from [`PrefilterMode`] at
    /// rebuild time; `Auto` decides from the population shape).
    enabled: bool,
    /// The attributes assigned presence bits, in bit order.
    tracked: Vec<AttrId>,
    /// `AttrId::index()` → presence bit, [`NO_BIT`] for untracked attributes.
    attr_bit: Vec<u8>,
    /// Interning table over the discrimination constants of all
    /// subscriptions. Event values are looked up through the same table, so
    /// key equality is exactly engine equality ([`EqKey`] semantics,
    /// including the `Int -> Float` widening).
    constants: HashMap<EqKey, u32>,
    /// Indexed by engine slot.
    slot_filters: Vec<SlotFilter>,
    /// Reusable traversal stack for rebuilds.
    stack: Vec<NodeId>,
}

impl PreFilter {
    /// Creates a pre-filter that kills nothing (disabled, no subscriptions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether stage 0 is active. When `false`, fingerprinting is skipped
    /// entirely and every candidate survives.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of attributes assigned presence bits by the last rebuild.
    pub fn tracked_attributes(&self) -> usize {
        self.tracked.len()
    }

    /// Recompiles the per-slot filters from the current subscription set.
    ///
    /// `subs` yields every occupied `(slot, subscription)`; `slot_count` is
    /// the slab length (filters of free slots stay at the never-kill
    /// default). The iterator is walked twice — once to rank attributes for
    /// the 64 tracked bits, once to compile masks — hence `Clone`.
    pub(crate) fn rebuild<'a>(
        &mut self,
        slot_count: usize,
        subs: impl Iterator<Item = (u32, &'a Subscription)> + Clone,
        index: &AttributeIndex,
        hint: Option<&DiscriminationHint>,
        mode: PrefilterMode,
    ) {
        self.tracked.clear();
        self.constants.clear();
        self.slot_filters.clear();
        self.attr_bit.iter_mut().for_each(|b| *b = NO_BIT);
        if mode == PrefilterMode::Off {
            self.enabled = false;
            return;
        }

        // Pass A: rank attributes by how many subscriptions require them, so
        // the (at most 64) presence bits go to the most load-bearing ones.
        let mut occupied = 0usize;
        let mut counts: HashMap<AttrId, u64> = HashMap::new();
        for (_, sub) in subs.clone() {
            occupied += 1;
            for_each_required_item(sub.tree(), &mut self.stack, |item| {
                let attr = match item {
                    RequiredItem::Leaf(p) => p.attr_id(),
                    RequiredItem::AnyEq(attr, _) => attr,
                };
                *counts.entry(attr).or_insert(0) += 1;
            });
        }
        let mut ranked: Vec<(AttrId, u64)> = counts.into_iter().collect();
        if ranked.len() > MAX_TRACKED {
            ranked.sort_unstable_by_key(|&(attr, count)| (std::cmp::Reverse(count), attr.raw()));
            ranked.truncate(MAX_TRACKED);
        }
        self.tracked.extend(ranked.iter().map(|&(attr, _)| attr));
        // Deterministic bit assignment regardless of hash-map iteration.
        self.tracked.sort_unstable_by_key(|attr| attr.raw());
        let max_index = self.tracked.iter().map(|a| a.index()).max();
        if let Some(max_index) = max_index {
            if self.attr_bit.len() <= max_index {
                self.attr_bit.resize(max_index + 1, NO_BIT);
            }
        }
        for (bit, attr) in self.tracked.iter().enumerate() {
            self.attr_bit[attr.index()] = bit as u8;
        }

        // Pass B: compile each subscription's presence mask and pick its two
        // most discriminating required equalities as the kill keys.
        self.slot_filters.resize(slot_count, SlotFilter::default());
        let mut constrained = 0usize;
        for (slot, sub) in subs {
            let mut mask = 0u64;
            // Best two candidates: (score, attr raw id) minimal wins; score
            // is "probability a random event survives this key", so lower is
            // more discriminating. Candidates on the *same attribute bit* are
            // never kept twice — the second slot must add information.
            let mut best: Option<(f64, u32, u8, EqKey)> = None;
            let mut second: Option<(f64, u32, u8, EqKey)> = None;
            // Best disjunctive group: fewest allowed constants wins.
            let mut best_group: Option<(usize, u32, u8, u64)> = None;
            let attr_bit = &self.attr_bit;
            let constants = &mut self.constants;
            for_each_required_item(sub.tree(), &mut self.stack, |item| {
                let p = match item {
                    RequiredItem::Leaf(p) => p,
                    RequiredItem::AnyEq(attr, children) => {
                        let bit = attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
                        if bit == NO_BIT {
                            return;
                        }
                        mask |= 1 << bit;
                        // Fold the allowed constants into a signature. A
                        // child whose constant cannot be interned (NaN) can
                        // never be true, so it contributes no bit.
                        let mut sig = 0u64;
                        let mut allowed = 0usize;
                        for &id in children {
                            let node = sub.tree().node(id).expect("checked by the walker");
                            let NodeKind::Predicate(child) = node.kind() else {
                                unreachable!("checked by the walker");
                            };
                            if let Some(eq_key) = EqKey::from_value(child.constant()) {
                                let next = constants.len() as u32;
                                let key = *constants.entry(eq_key).or_insert(next);
                                sig |= 1 << (key & 63);
                                allowed += 1;
                            }
                        }
                        let better = match &best_group {
                            Some((n, raw, _, _)) => (allowed, attr.raw()) < (*n, *raw),
                            None => true,
                        };
                        if better {
                            best_group = Some((allowed, attr.raw(), bit, sig));
                        }
                        return;
                    }
                };
                let attr = p.attr_id();
                let bit = attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
                if bit == NO_BIT {
                    return;
                }
                mask |= 1 << bit;
                if p.operator() != pubsub_core::Operator::Eq {
                    return;
                }
                let Some(eq_key) = EqKey::from_value(p.constant()) else {
                    return;
                };
                let score = hint
                    .and_then(|h| h.score(attr))
                    .unwrap_or_else(|| 1.0 / (index.equality_cardinality(attr) as f64 + 1.0));
                let cand = (score, attr.raw(), bit, eq_key);
                let beats = |held: &Option<(f64, u32, u8, EqKey)>| match held {
                    Some((s, raw, _, _)) => (cand.0, cand.1) < (*s, *raw),
                    None => true,
                };
                if beats(&best) {
                    // Only demote the old best if it sits on a different bit;
                    // two keys on one attribute are either redundant or (with
                    // different constants) an unsatisfiable tree the counting
                    // stage rejects anyway.
                    if !matches!(&best, Some((_, _, b, _)) if *b == cand.2) {
                        second = best.take();
                    }
                    best = Some(cand);
                } else if !matches!(&best, Some((_, _, b, _)) if *b == cand.2) && beats(&second) {
                    second = Some(cand);
                }
            });
            let filter = &mut self.slot_filters[slot as usize];
            filter.required_mask = mask;
            if let Some((_, _, bit, eq_key)) = best {
                let next = self.constants.len() as u32;
                filter.disc_bit = bit;
                filter.disc_key = *self.constants.entry(eq_key).or_insert(next);
            }
            if let Some((_, _, bit, eq_key)) = second {
                let next = self.constants.len() as u32;
                filter.disc2_bit = bit;
                filter.disc2_key = *self.constants.entry(eq_key).or_insert(next);
            }
            if let Some((_, _, bit, sig)) = best_group {
                filter.sig_bit = bit;
                filter.sig = sig;
            }
            if mask != 0 {
                constrained += 1;
            }
        }

        self.enabled = match mode {
            PrefilterMode::On => true,
            PrefilterMode::Off => false,
            PrefilterMode::Auto => occupied >= 32 && constrained * 2 >= occupied,
        };
    }

    /// Fingerprints one event: fills `keys` (one interned key per tracked
    /// attribute, [`NO_KEY`] when absent or unknown) and returns the
    /// presence bitmask. `keys` is caller-owned scratch, grow-only.
    pub(crate) fn fingerprint<'a>(
        &self,
        pairs: impl Iterator<Item = (AttrId, &'a Value)>,
        keys: &mut Vec<u32>,
    ) -> u64 {
        keys.clear();
        keys.resize(self.tracked.len(), NO_KEY);
        let mut mask = 0u64;
        for (attr, value) in pairs {
            let bit = self.attr_bit.get(attr.index()).copied().unwrap_or(NO_BIT);
            if bit == NO_BIT {
                continue;
            }
            mask |= 1 << bit;
            keys[bit as usize] = EqKey::from_value(value)
                .and_then(|k| self.constants.get(&k).copied())
                .unwrap_or(NO_KEY);
        }
        mask
    }

    /// Stage-0 kill test for one `(event, slot)` pair against a fingerprint
    /// produced by [`fingerprint`](Self::fingerprint). `true` means the slot
    /// provably cannot match the event.
    #[inline]
    pub(crate) fn kills(&self, slot: usize, mask: u64, keys: &[u32]) -> bool {
        let f = &self.slot_filters[slot];
        f.required_mask & !mask != 0
            || (f.disc_bit != NO_BIT && keys[f.disc_bit as usize] != f.disc_key)
            || (f.disc2_bit != NO_BIT && keys[f.disc2_bit as usize] != f.disc2_key)
            || (f.sig_bit != NO_BIT && {
                // An unregistered event value ([`NO_KEY`]) equals none of the
                // allowed constants; a registered one must have its bit set.
                let key = keys[f.sig_bit as usize];
                key == NO_KEY || f.sig & (1 << (key & 63)) == 0
            })
    }
}

/// A required clause surfaced by [`for_each_required_item`].
enum RequiredItem<'a> {
    /// A predicate leaf that must itself be true.
    Leaf(&'a Predicate),
    /// A required `Or` whose children are all equality predicates on one
    /// attribute: the attribute must be present and its value must equal one
    /// of the children's constants.
    AnyEq(AttrId, &'a [NodeId]),
}

/// Walks the *required* clauses of a tree: root required, `And` propagates
/// to all children, a single-child `Or` to its only child, `Not` to none. A
/// required multi-child `Or` is surfaced as [`RequiredItem::AnyEq`] when all
/// its children are equalities on one attribute, and dropped otherwise. See
/// the [module docs](self) for why this under-approximation is sound.
fn for_each_required_item<'a>(
    tree: &'a SubscriptionTree,
    stack: &mut Vec<NodeId>,
    mut f: impl FnMut(RequiredItem<'a>),
) {
    stack.clear();
    stack.push(tree.root());
    while let Some(id) = stack.pop() {
        let node = tree.node(id).expect("tree nodes are internally consistent");
        match node.kind() {
            NodeKind::Predicate(p) => f(RequiredItem::Leaf(p)),
            NodeKind::And => stack.extend_from_slice(node.children()),
            NodeKind::Or => match node.children() {
                [only] => stack.push(*only),
                children => {
                    if let Some(attr) = single_attr_equality_group(tree, children) {
                        f(RequiredItem::AnyEq(attr, children));
                    }
                }
            },
            NodeKind::Not => {}
        }
    }
}

/// Returns the common attribute when every node in `children` is an equality
/// predicate on the same attribute, `None` otherwise.
fn single_attr_equality_group(tree: &SubscriptionTree, children: &[NodeId]) -> Option<AttrId> {
    let mut attr = None;
    for &id in children {
        let node = tree.node(id).expect("tree nodes are internally consistent");
        let NodeKind::Predicate(p) = node.kind() else {
            return None;
        };
        if p.operator() != pubsub_core::Operator::Eq {
            return None;
        }
        match attr {
            None => attr = Some(p.attr_id()),
            Some(a) if a == p.attr_id() => {}
            Some(_) => return None,
        }
    }
    attr
}

#[cfg(test)]
mod tests {
    use super::*;
    use pubsub_core::{Expr, SubscriberId, SubscriptionId};

    fn sub(id: u64, expr: &Expr) -> Subscription {
        Subscription::from_expr(
            SubscriptionId::from_raw(id),
            SubscriberId::from_raw(1),
            expr,
        )
    }

    fn rebuild(pf: &mut PreFilter, subs: &[Subscription], mode: PrefilterMode) {
        let index = AttributeIndex::new();
        pf.rebuild(
            subs.len(),
            subs.iter().enumerate().map(|(i, s)| (i as u32, s)),
            &index,
            None,
            mode,
        );
    }

    fn fingerprint_event(pf: &PreFilter, ev: &pubsub_core::EventMessage) -> (u64, Vec<u32>) {
        let mut keys = Vec::new();
        let mask = pf.fingerprint(ev.iter_resolved(), &mut keys);
        (mask, keys)
    }

    #[test]
    fn required_leaves_follow_and_single_or_and_skip_not() {
        let expr = Expr::and(vec![
            Expr::eq("pf_title", "war and peace"),
            Expr::or(vec![Expr::le("pf_price", 10i64)]),
            Expr::or(vec![Expr::eq("pf_cat", "books"), Expr::eq("pf_cat", "cds")]),
            Expr::not(Expr::eq("pf_cond", "worn")),
        ]);
        let s = sub(1, &expr);
        let mut attrs = Vec::new();
        let mut stack = Vec::new();
        for_each_required_item(s.tree(), &mut stack, |item| match item {
            RequiredItem::Leaf(p) => {
                attrs.push(pubsub_core::attr::name(p.attr_id()).to_string());
            }
            RequiredItem::AnyEq(attr, children) => {
                attrs.push(format!(
                    "any({}, {})",
                    pubsub_core::attr::name(attr),
                    children.len()
                ));
            }
        });
        attrs.sort();
        // `pf_cond` (negated) is not required; the `pf_cat` equality-`Or`
        // surfaces as a disjunctive group.
        assert_eq!(attrs, vec!["any(pf_cat, 2)", "pf_price", "pf_title"]);
    }

    #[test]
    fn kills_on_missing_attribute_and_wrong_discrimination_key() {
        let subs = vec![sub(
            1,
            &Expr::and(vec![
                Expr::eq("pf_title", "moby dick"),
                Expr::le("pf_price", 10i64),
            ]),
        )];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert!(pf.enabled());
        assert_eq!(pf.tracked_attributes(), 2);

        let matching = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &matching);
        assert!(!pf.kills(0, mask, &keys));

        // Wrong title: the discrimination key mismatches.
        let wrong_key = pubsub_core::EventMessage::builder()
            .attr("pf_title", "ulysses")
            .attr("pf_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &wrong_key);
        assert!(pf.kills(0, mask, &keys));

        // Missing price: the presence mask mismatches even though the price
        // bound itself is not an equality.
        let missing_attr = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .build();
        let (mask, keys) = fingerprint_event(&pf, &missing_attr);
        assert!(pf.kills(0, mask, &keys));

        // A killed event may still carry *more* attributes than required.
        let extra = pubsub_core::EventMessage::builder()
            .attr("pf_title", "moby dick")
            .attr("pf_price", 500i64)
            .attr("pf_other", true)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &extra);
        assert!(!pf.kills(0, mask, &keys));
    }

    #[test]
    fn second_discrimination_key_kills_hot_key_survivors() {
        // Two subscriptions agree on the hot primary key (title) but differ
        // on a secondary equality; the second key must separate them.
        let subs = vec![
            sub(
                1,
                &Expr::and(vec![
                    Expr::eq("pf2_title", "moby dick"),
                    Expr::eq("pf2_cond", "new"),
                    Expr::le("pf2_price", 10i64),
                ]),
            ),
            sub(
                2,
                &Expr::and(vec![
                    Expr::eq("pf2_title", "moby dick"),
                    Expr::eq("pf2_cond", "worn"),
                    Expr::le("pf2_price", 10i64),
                ]),
            ),
        ];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .attr("pf2_cond", "new")
            .attr("pf2_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        assert!(pf.kills(1, mask, &keys), "condition disagrees on sub 2");

        // A single required equality must leave the second slot inert.
        let one = vec![sub(3, &Expr::eq("pf2_title", "moby dick"))];
        rebuild(&mut pf, &one, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf2_title", "moby dick")
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
    }

    #[test]
    fn disjunctive_signature_kills_values_outside_the_allowed_set() {
        // `category ∈ {books, cds}` as a required Or: an event in a third
        // category (or missing the attribute) provably cannot match, even
        // though no single equality is required.
        let subs = vec![sub(
            1,
            &Expr::and(vec![
                Expr::or(vec![
                    Expr::eq("pf3_cat", "books"),
                    Expr::eq("pf3_cat", "cds"),
                ]),
                Expr::le("pf3_price", 10i64),
            ]),
        )];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert_eq!(pf.tracked_attributes(), 2, "the Or attribute earns a bit");

        let allowed = pubsub_core::EventMessage::builder()
            .attr("pf3_cat", "cds")
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &allowed);
        assert!(!pf.kills(0, mask, &keys));

        let outside = pubsub_core::EventMessage::builder()
            .attr("pf3_cat", "stamps")
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &outside);
        assert!(pf.kills(0, mask, &keys), "category outside the allowed set");

        let absent = pubsub_core::EventMessage::builder()
            .attr("pf3_price", 5i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &absent);
        assert!(pf.kills(0, mask, &keys), "the Or attribute is required");

        // Mixed-attribute and mixed-operator Ors must NOT compile a
        // signature (they are satisfiable without the attribute).
        let mixed = vec![sub(
            2,
            &Expr::and(vec![
                Expr::or(vec![
                    Expr::eq("pf3_cat", "books"),
                    Expr::le("pf3_price", 1i64),
                ]),
                Expr::ge("pf3_price", 0i64),
            ]),
        )];
        rebuild(&mut pf, &mixed, PrefilterMode::On);
        let no_cat = pubsub_core::EventMessage::builder()
            .attr("pf3_price", 0i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &no_cat);
        assert!(!pf.kills(0, mask, &keys), "mixed Or is not a group");
    }

    #[test]
    fn equality_keys_use_engine_equality_semantics() {
        // `= 3` (int) and an event carrying `3.0` (float) must agree, like
        // the engine's equality buckets do.
        let subs = vec![sub(1, &Expr::eq("pf_num", 3i64))];
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_num", 3.0f64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_num", f64::NAN)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(pf.kills(0, mask, &keys), "NaN can never fulfil an equality");
    }

    #[test]
    fn auto_mode_requires_a_large_constrained_population() {
        let constrained: Vec<Subscription> = (0..32)
            .map(|i| sub(i, &Expr::eq("pf_auto_a", i as i64)))
            .collect();
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &constrained[..31], PrefilterMode::Auto);
        assert!(!pf.enabled(), "below the population floor");
        rebuild(&mut pf, &constrained, PrefilterMode::Auto);
        assert!(pf.enabled());

        // Mostly unconstrained population: NOT roots have no required leaves.
        let unconstrained: Vec<Subscription> = (0..32)
            .map(|i| {
                if i < 8 {
                    sub(i, &Expr::eq("pf_auto_a", i as i64))
                } else {
                    sub(i, &Expr::not(Expr::eq("pf_auto_b", i as i64)))
                }
            })
            .collect();
        rebuild(&mut pf, &unconstrained, PrefilterMode::Auto);
        assert!(!pf.enabled(), "constraint coverage below half");

        rebuild(&mut pf, &constrained, PrefilterMode::Off);
        assert!(!pf.enabled());
    }

    #[test]
    fn tracked_attributes_cap_at_sixty_four() {
        // 70 distinct attributes; the popular one must keep its bit.
        let mut subs: Vec<Subscription> = (0..70)
            .map(|i| sub(i, &Expr::eq(format!("pf_cap_{i}").as_str(), 1i64)))
            .collect();
        for i in 70..80 {
            subs.push(sub(i, &Expr::eq("pf_cap_0", 1i64)));
        }
        let mut pf = PreFilter::new();
        rebuild(&mut pf, &subs, PrefilterMode::On);
        assert_eq!(pf.tracked_attributes(), 64);
        let ev = pubsub_core::EventMessage::builder()
            .attr("pf_cap_0", 1i64)
            .build();
        let (mask, keys) = fingerprint_event(&pf, &ev);
        assert!(!pf.kills(0, mask, &keys));
        assert!(pf.kills(1, mask, &keys), "pf_cap_1 is required but absent");
    }
}
