"""The keyword match of one named tagged-keyword slot.

The server tries every slot of a record at once (``sse.sse_match_any``); a
test that knows which slot should match checks that one slot with this.
"""

from dataclasses import replace

from triseal import sse


def sse_match(ctx, elems, token, keyword_index, pks) -> bool:
    """True iff tagged keyword ``keyword_index`` matches the token under the
    token's declared subset.  A mismatch is an ordinary False."""
    term = sse.subset_term(ctx, elems, sse.subset_product(ctx, pks, token.subset))
    slot = replace(elems, tagged_keywords=(elems.tagged_keywords[keyword_index],))
    return sse.sse_match_any(ctx, slot, token, term)
