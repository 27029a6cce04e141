"""Alignment, language features and reliability statistics for classroom
speech transcripts.

The pipeline: ingest machine (ASR) and expert transcripts, align them
utterance by utterance, extract teacher and child language features, and
quantify machine-expert agreement (word error rate, speaker-classification
metrics, intraclass correlations) per recording and corpus-wide.

Each name is imported from the module that defines it, such as
``talkmetrics.ingest`` or ``talkmetrics.batch``; the package itself
exports none.
"""

__version__ = "0.1.0"
