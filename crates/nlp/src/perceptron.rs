//! A multi-class averaged perceptron over string features, stored dense.
//!
//! This is the learning machinery behind both the triple-pattern tagger
//! (the BART/GPT-3 Seq2Seq substitute, [`crate::seq2seq`]) and part of the
//! answer-type classifier.  The averaged perceptron is a classic structured
//! NLP learner: simple, fast, deterministic, and — crucially for this
//! reproduction — trainable from the annotated question corpus rather than
//! hand-curated per benchmark.
//!
//! Training and serving share one representation.  The classes are sorted
//! once, at construction.  Every feature has one row of a flat `Vec<f64>`,
//! one weight per class, and a feature → row map finds it.  A [`Training`]
//! run keeps its averaging state in two more flat vectors parallel to the
//! weights; [`Training::average`] folds them in and returns the
//! [`AveragedPerceptron`], which keeps only the rows training moved and has
//! no way to update them.  The serving map is never written after that, so
//! question text cannot make it grow.
//!
//! A feature template writes its features one at a time into a
//! [`FeatureSink`] with `format_args!`; the sink formats each one into a
//! reused buffer and looks it up once, so no feature is ever a `String` of
//! its own.  [`oracle`] keeps the nested-map perceptron this replaced, and
//! the tests hold the dense one to it bit for bit.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};

#[cfg(test)]
mod oracle;

/// Where a feature template writes the features of one instance.
pub(crate) trait FeatureSink {
    /// Add one feature, e.g. `format_args!("w={word}")`.  A feature written
    /// twice counts twice.
    fn feature(&mut self, feature: fmt::Arguments<'_>);
}

/// A trained (or untrained) multi-class averaged perceptron: the argmax
/// class of the summed weight rows of the active features.
#[derive(Debug, Clone)]
pub(crate) struct AveragedPerceptron {
    /// Sorted: equal scores go to the alphabetically first class.
    classes: Vec<String>,
    rows: FeatureRows,
    /// Row `r` is `weights[r * classes.len()..][..classes.len()]`.
    weights: Vec<f64>,
}

/// Feature → row, hashed with an Fx-style multiply-xor hash.  Only training
/// inserts, so every stored key comes from the annotated corpus; question
/// text only looks keys up, and a lookup in a table that cannot grow probes
/// at most its fixed capacity however its key collides.  SipHash would
/// guard nothing here and costs about half again as much per question.
type FeatureRows = HashMap<String, usize, BuildHasherDefault<FeatureHasher>>;

#[derive(Default)]
struct FeatureHasher(u64);

impl Hasher for FeatureHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
}

impl AveragedPerceptron {
    /// An untrained perceptron over the given classes: every feature scores
    /// zero, so it predicts the alphabetically first class.
    pub(crate) fn new(mut classes: Vec<String>) -> Self {
        classes.sort();
        classes.dedup();
        assert!(!classes.is_empty(), "a perceptron needs a class");
        AveragedPerceptron {
            classes,
            rows: FeatureRows::default(),
            weights: Vec::new(),
        }
    }

    fn row(&self, row: usize) -> &[f64] {
        let n = self.classes.len();
        &self.weights[row * n..][..n]
    }

    /// A sink that scores the features written to it against this model.
    pub(crate) fn scorer(&self) -> Scorer<'_> {
        Scorer {
            model: self,
            key: String::new(),
            scores: vec![0.0; self.classes.len()],
        }
    }
}

/// Adds a weight row into a score row, class by class.
fn add_row(scores: &mut [f64], row: &[f64]) {
    for (score, weight) in scores.iter_mut().zip(row) {
        *score += weight;
    }
}

/// The first highest score, in class order.
fn argmax(scores: &[f64]) -> usize {
    let mut best = 0;
    for (class, &score) in scores.iter().enumerate() {
        if score > scores[best] {
            best = class;
        }
    }
    best
}

/// Scores features as they are written; [`Scorer::predict`] reads the
/// winner and starts the next instance.  One scorer serves every token of a
/// question.
pub(crate) struct Scorer<'m> {
    model: &'m AveragedPerceptron,
    key: String,
    scores: Vec<f64>,
}

impl FeatureSink for Scorer<'_> {
    fn feature(&mut self, feature: fmt::Arguments<'_>) {
        self.key.clear();
        self.key
            .write_fmt(feature)
            .expect("formatting into a String cannot fail");
        if let Some(&row) = self.model.rows.get(self.key.as_str()) {
            add_row(&mut self.scores, self.model.row(row));
        }
    }
}

impl<'m> Scorer<'m> {
    /// The best class for the features written since the last call (ties
    /// go to the alphabetically first class), clearing them.
    pub(crate) fn predict(&mut self) -> &'m str {
        let best = argmax(&self.scores);
        self.scores.fill(0.0);
        &self.model.classes[best]
    }
}

/// An averaged perceptron being trained online: the model as it stands,
/// plus, per weight, the sum of its values over the instances seen so far
/// up to its last change (`totals`) and the instance count at that change
/// (`stamps`), both laid out like the weights.
pub(crate) struct Training {
    model: AveragedPerceptron,
    totals: Vec<f64>,
    stamps: Vec<u64>,
    instances: u64,
    key: String,
    /// Rows of the features written since the last [`Training::learn`].
    active: Vec<usize>,
    scores: Vec<f64>,
}

impl FeatureSink for Training {
    fn feature(&mut self, feature: fmt::Arguments<'_>) {
        self.key.clear();
        self.key
            .write_fmt(feature)
            .expect("formatting into a String cannot fail");
        let row = match self.model.rows.get(self.key.as_str()) {
            Some(&row) => row,
            None => {
                let row = self.model.rows.len();
                self.model.rows.insert(self.key.clone(), row);
                let n = self.model.classes.len();
                self.model.weights.resize((row + 1) * n, 0.0);
                self.totals.resize((row + 1) * n, 0.0);
                self.stamps.resize((row + 1) * n, 0);
                row
            }
        };
        self.active.push(row);
    }
}

impl Training {
    /// Start training a perceptron over the given classes.
    pub(crate) fn new(classes: Vec<String>) -> Self {
        let model = AveragedPerceptron::new(classes);
        let scores = vec![0.0; model.classes.len()];
        Training {
            model,
            totals: Vec::new(),
            stamps: Vec::new(),
            instances: 0,
            key: String::new(),
            active: Vec::new(),
            scores,
        }
    }

    /// One online step over the features written since the last call:
    /// predict, and if the guess is not `truth`, promote the truth's weights
    /// and demote the guess's for every feature.  Returns the guess.
    pub(crate) fn learn(&mut self, truth: &str) -> &str {
        self.scores.fill(0.0);
        for &row in &self.active {
            add_row(&mut self.scores, self.model.row(row));
        }
        let guess = argmax(&self.scores);
        let truth = self
            .model
            .classes
            .binary_search_by(|class| class.as_str().cmp(truth))
            .expect("the truth is one of the classes");
        self.instances += 1;
        if truth != guess {
            let n = self.model.classes.len();
            for i in 0..self.active.len() {
                let row = self.active[i];
                self.adjust(row * n + truth, 1.0);
                self.adjust(row * n + guess, -1.0);
            }
        }
        self.active.clear();
        &self.model.classes[guess]
    }

    fn adjust(&mut self, weight: usize, delta: f64) {
        let current = self.model.weights[weight];
        // Account the instances this value has been in effect since its
        // last change.
        self.totals[weight] += (self.instances - self.stamps[weight]) as f64 * current;
        self.stamps[weight] = self.instances;
        self.model.weights[weight] = current + delta;
    }

    /// Replace every weight with its average over the training run and keep
    /// only the features training moved.
    pub(crate) fn average(self) -> AveragedPerceptron {
        let Training {
            model,
            totals,
            stamps,
            instances,
            ..
        } = self;
        let n = model.classes.len();
        let mut rows = FeatureRows::default();
        let mut weights = Vec::new();
        for (feature, row) in model.rows {
            let span = row * n..(row + 1) * n;
            // A weight is changed only after `instances` is counted, so a
            // row never changed has only zero stamps.
            if stamps[span.clone()].iter().all(|&stamp| stamp == 0) {
                continue;
            }
            rows.insert(feature, weights.len() / n);
            weights.extend(span.map(|i| {
                let total = totals[i] + (instances - stamps[i]) as f64 * model.weights[i];
                total / instances as f64
            }));
        }
        AveragedPerceptron {
            classes: model.classes,
            rows,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn write_all(sink: &mut impl FeatureSink, features: &[String]) {
        for feature in features {
            sink.feature(format_args!("{feature}"));
        }
    }

    impl AveragedPerceptron {
        /// Every class with its score, best first, ties by class name: the
        /// oracle's order.
        fn scores(&self, features: &[String]) -> Vec<(String, f64)> {
            let mut scorer = self.scorer();
            write_all(&mut scorer, features);
            let mut out: Vec<(String, f64)> =
                self.classes.iter().cloned().zip(scorer.scores).collect();
            out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            out
        }

        fn predict(&self, features: &[String]) -> String {
            let mut scorer = self.scorer();
            write_all(&mut scorer, features);
            scorer.predict().to_string()
        }

        /// Each feature's weight row.
        fn weights(&self) -> HashMap<&str, &[f64]> {
            self.rows
                .iter()
                .map(|(feature, &row)| (feature.as_str(), self.row(row)))
                .collect()
        }
    }

    impl Training {
        fn update(&mut self, truth: &str, features: &[String]) -> String {
            write_all(self, features);
            self.learn(truth).to_string()
        }

        /// The weight row of each feature training has changed.
        fn weights(&self) -> HashMap<&str, &[f64]> {
            let n = self.model.classes.len();
            self.model
                .rows
                .iter()
                .filter(|&(_, &row)| self.stamps[row * n..][..n].iter().any(|&s| s > 0))
                .map(|(feature, &row)| (feature.as_str(), self.model.row(row)))
                .collect()
        }
    }

    fn features(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| format!("w={w}")).collect()
    }

    #[test]
    fn learns_a_linearly_separable_toy_problem() {
        let mut p = Training::new(vec!["animal".into(), "city".into()]);
        let animals = [vec!["cat"], vec!["dog"], vec!["cat", "dog"], vec!["horse"]];
        let cities = [
            vec!["paris"],
            vec!["berlin"],
            vec!["paris", "berlin"],
            vec!["rome"],
        ];
        for _ in 0..5 {
            for a in &animals {
                p.update("animal", &features(a));
            }
            for c in &cities {
                p.update("city", &features(c));
            }
        }
        let p = p.average();
        assert_eq!(p.predict(&features(&["cat"])), "animal");
        assert_eq!(p.predict(&features(&["berlin"])), "city");
        assert_eq!(p.predict(&features(&["dog", "horse"])), "animal");
        assert!(!p.weights().is_empty());
    }

    #[test]
    fn prediction_is_deterministic_for_unseen_features() {
        let p = AveragedPerceptron::new(vec!["b".into(), "a".into()]);
        // All scores are 0; tie-break is alphabetical.
        assert_eq!(p.predict(&features(&["unseen"])), "a");
    }

    #[test]
    fn update_with_correct_guess_changes_nothing() {
        let mut p = Training::new(vec!["x".into(), "y".into()]);
        p.update("x", &features(&["f"]));
        assert!(p.weights().is_empty());
    }

    #[test]
    fn scores_are_sorted_descending() {
        let mut p = Training::new(vec!["x".into(), "y".into()]);
        for _ in 0..3 {
            p.update("x", &features(&["f"]));
        }
        let p = p.average();
        let scores = p.scores(&features(&["f"]));
        assert_eq!(scores[0].0, "x");
        assert!(scores[0].1 >= scores[1].1);
    }

    #[test]
    fn averaging_keeps_only_the_features_training_moved() {
        let mut p = Training::new(vec!["x".into(), "y".into()]);
        // The untrained guess is "x": only "moved" gets a row.
        p.update("x", &features(&["still"]));
        p.update("y", &features(&["moved"]));
        // Now guessed right: the weights stand for a third instance.
        p.update("y", &features(&["moved"]));
        let p = p.average();
        let weights = p.weights();
        assert_eq!(weights.len(), 1);
        assert_eq!(weights["w=moved"], [-1.0 / 3.0, 1.0 / 3.0]);
    }

    /// Class names in no sorted order: a draw takes 2–6 of them, walking
    /// the list forwards or backwards from a random start.
    const CLASSES: [&str; 6] = ["O", "date", "B-ENT", "string", "I-REL", "boolean"];

    fn arb_classes() -> impl Strategy<Value = Vec<String>> {
        (2usize..7, 0usize..6, 0usize..2).prop_map(|(k, start, step)| {
            let step = [1, 5][step];
            (0..k)
                .map(|i| CLASSES[(start + i * step) % 6].to_string())
                .collect()
        })
    }

    /// A feature list over a small vocabulary, so lists repeat features,
    /// share them and tie; `u*` features are never trained on.
    fn arb_features(vocabulary: &'static str) -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec(vocabulary, 0..7)
    }

    proptest! {
        #[test]
        fn dense_training_and_prediction_match_the_oracle_bit_for_bit(
            classes in arb_classes(),
            stream in prop::collection::vec((arb_features("[a-f]"), 0usize..6), 0..40),
            epochs in 1usize..4,
            probes in prop::collection::vec(arb_features("[a-fu-w]"), 1..12),
        ) {
            let mut oracle = oracle::AveragedPerceptron::new(classes.clone());
            let mut dense = Training::new(classes.clone());
            let untrained = AveragedPerceptron::new(classes.clone());
            let first = classes.iter().min().unwrap();
            for features in &probes {
                prop_assert_eq!(&untrained.predict(features), first);
                prop_assert_eq!(untrained.scores(features), oracle.scores(features));
            }
            for _ in 0..epochs {
                for (features, truth) in &stream {
                    let truth = &classes[truth % classes.len()];
                    let expected = oracle.predict(features);
                    oracle.update(truth, &expected, features);
                    prop_assert_eq!(dense.update(truth, features), expected);
                }
            }
            oracle.average();
            let dense = dense.average();
            let bits = |scores: Vec<(String, f64)>| -> Vec<(String, u64)> {
                scores.into_iter().map(|(c, s)| (c, s.to_bits())).collect()
            };
            for features in probes.iter().chain([&Vec::new()]) {
                prop_assert_eq!(dense.predict(features), oracle.predict(features));
                prop_assert_eq!(bits(dense.scores(features)), bits(oracle.scores(features)));
            }
        }
    }
}
