"""Privacy-preserving graph embeddings with adversarial training.

Learns node embeddings for attributed graphs while suppressing a chosen
private attribute, and audits the result with inference attacks, attribute
prediction, and link prediction.

The supported interface is the ``privemb`` command (``privemb.cli``). The
modules are internal: the config, the data and the embeddings are checked
where the command reads them, and the values the program builds from them
are not checked again.
"""

__version__ = "0.1.0"
