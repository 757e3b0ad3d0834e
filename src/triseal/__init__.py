"""Three-layer privacy-preserving data sharing over bilinear groups.

Layer 1 lets an honest-but-curious server match owner-consented search
tokens against encrypted keyword tags; layer 2 lets it verify anonymous,
collusion-resistant attribute credentials against an owner policy; layer 3
lets a qualified user locally unwrap the payload encryption key.  See
README.md for the protocol walkthrough and the CLI.
"""

__version__ = "0.1.0"
