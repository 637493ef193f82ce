"""baitline: clickbait-detection baselines, corpus tooling, and evaluation.

Model line-up: random forest and linear SVM over handcrafted readability
features, a dual-branch BiLSTM, a pluggable-encoder classification head, a
Siamese contrastive title-content model, and a weighted-voting ensemble.
Label convention everywhere: clickbait = 0, non-clickbait = 1.
"""

__version__ = "0.1.0"
