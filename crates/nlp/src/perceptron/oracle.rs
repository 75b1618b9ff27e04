//! The reference perceptron: the nested-map implementation the dense
//! [`AveragedPerceptron`](super::AveragedPerceptron) replaced, kept as it
//! was.  Weights live in one string-keyed map per feature, and the averaging
//! totals and timestamps in maps keyed by `(feature, class)`.
//!
//! Nothing at run time uses this module.  The property tests in
//! [`super`] train both on the same streams and hold the dense model's
//! predictions and scores to these, bit for bit, the way
//! `embedding::oracle` pins the affinity kernel.

use std::collections::HashMap;

/// A multi-class averaged perceptron.
///
/// Weights are keyed by `(feature, class)`; prediction is the argmax class of
/// the summed weights of the active features.  Training uses the standard
/// "average of all intermediate weight vectors" trick to reduce variance,
/// implemented with lazily-accumulated totals.
#[derive(Debug, Clone, Default)]
pub(crate) struct AveragedPerceptron {
    classes: Vec<String>,
    weights: HashMap<String, HashMap<String, f64>>,
    totals: HashMap<(String, String), f64>,
    timestamps: HashMap<(String, String), u64>,
    instances: u64,
    averaged: bool,
}

impl AveragedPerceptron {
    /// Create a perceptron over the given set of classes.
    pub(crate) fn new(classes: Vec<String>) -> Self {
        AveragedPerceptron {
            classes,
            ..Default::default()
        }
    }

    /// Score every class for a feature set.
    pub(crate) fn scores(&self, features: &[String]) -> Vec<(String, f64)> {
        let mut scores: HashMap<&str, f64> =
            self.classes.iter().map(|c| (c.as_str(), 0.0)).collect();
        for feature in features {
            if let Some(per_class) = self.weights.get(feature) {
                for (class, w) in per_class {
                    *scores.entry(class.as_str()).or_insert(0.0) += w;
                }
            }
        }
        let mut out: Vec<(String, f64)> = scores
            .into_iter()
            .map(|(c, s)| (c.to_string(), s))
            .collect();
        // Deterministic tie-breaking: by score descending, then class name.
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out
    }

    /// Predict the best class for a feature set.
    pub(crate) fn predict(&self, features: &[String]) -> String {
        self.scores(features)
            .into_iter()
            .next()
            .map(|(c, _)| c)
            .unwrap_or_default()
    }

    /// One online update: if the prediction differs from the truth, promote
    /// the truth's weights and demote the prediction's.
    pub(crate) fn update(&mut self, truth: &str, guess: &str, features: &[String]) {
        self.instances += 1;
        if truth == guess {
            return;
        }
        for feature in features {
            self.adjust(feature, truth, 1.0);
            self.adjust(feature, guess, -1.0);
        }
    }

    fn adjust(&mut self, feature: &str, class: &str, delta: f64) {
        let key = (feature.to_string(), class.to_string());
        let current = self
            .weights
            .get(feature)
            .and_then(|m| m.get(class))
            .copied()
            .unwrap_or(0.0);
        // Lazily account the time this weight value has been in effect.
        let since = self.timestamps.get(&key).copied().unwrap_or(0);
        *self.totals.entry(key.clone()).or_insert(0.0) += (self.instances - since) as f64 * current;
        self.timestamps.insert(key, self.instances);
        self.weights
            .entry(feature.to_string())
            .or_default()
            .insert(class.to_string(), current + delta);
    }

    /// Replace every weight with its average over the training run.  Call
    /// once after the final epoch.
    pub(crate) fn average(&mut self) {
        if self.averaged || self.instances == 0 {
            self.averaged = true;
            return;
        }
        for (feature, per_class) in self.weights.iter_mut() {
            for (class, w) in per_class.iter_mut() {
                let key = (feature.clone(), class.clone());
                let since = self.timestamps.get(&key).copied().unwrap_or(0);
                let total = self.totals.get(&key).copied().unwrap_or(0.0)
                    + (self.instances - since) as f64 * *w;
                *w = total / self.instances as f64;
            }
        }
        self.averaged = true;
    }
}
