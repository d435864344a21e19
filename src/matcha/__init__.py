"""Contrastive semantic matching metric and its evaluation harness."""

__version__ = "0.1.0"

from .model import Hyper, ModelParams, cosine, init_params, represent, score
from .tokenizer import Vocabulary, WordVocabulary, build_word_vocabulary, load_vocabulary
from .training import TrainConfig, TripletBatch, margin_loss, train

__all__ = [
    "Hyper",
    "ModelParams",
    "TrainConfig",
    "TripletBatch",
    "Vocabulary",
    "WordVocabulary",
    "build_word_vocabulary",
    "cosine",
    "init_params",
    "load_vocabulary",
    "margin_loss",
    "represent",
    "score",
    "train",
    "__version__",
]
