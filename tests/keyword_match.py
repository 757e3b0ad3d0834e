"""The keyword match of one named tagged-keyword slot.

The server tries every slot of a record at once (``sse.sse_match_any``); a
test that knows which slot should match checks that one slot with this.
"""

from triseal import sse


def sse_match(ctx, elems, token, keyword_index, pks) -> bool:
    """True iff tagged keyword ``keyword_index`` matches the token under the
    token's declared subset.  A mismatch is an ordinary False."""
    target = sse._match_target(ctx, elems, token.token, sse.subset_product(ctx, pks, token.subset))
    return target == elems.tagged_keywords[keyword_index]
