import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from whatif.errors import AddressCollisionError, InvalidWeightError
from whatif.trace import (
    INTERVENED,
    LATENT,
    OBSERVED,
    Trace,
    TraceEntry,
    entry_contribution,
)


def entry(addr, value=0.0, lp=0.0, lq=0.0, role=LATENT):
    return TraceEntry(address=addr, value=value, log_prior=lp, log_proposal=lq, role=role)


class TestTrace:
    def test_record_and_lookup(self):
        t = Trace()
        t.record(entry("a", value=1.5))
        assert "a" in t
        assert t["a"].value == 1.5
        assert len(t) == 1

    def test_duplicate_address_rejected(self):
        t = Trace()
        t.record(entry("a"))
        with pytest.raises(AddressCollisionError):
            t.record(entry("a"))

    def test_latent_contribution_is_prior_minus_proposal(self):
        e = entry("a", lp=-1.0, lq=-2.5)
        assert entry_contribution(e) == 1.5

    def test_impossible_latent_contributes_minus_inf_not_nan(self):
        # -inf - -inf is NaN; a draw impossible under the prior rejects
        e = entry("a", lp=-math.inf, lq=-math.inf)
        assert entry_contribution(e) == -math.inf

    def test_observed_contribution_is_likelihood(self):
        e = entry("a", lp=-0.375, role=OBSERVED)
        assert entry_contribution(e) == -0.375

    def test_intervened_contributes_nothing(self):
        e = entry("a", lp=-3.0, lq=-1.0, role="intervened")
        assert entry_contribution(e) == 0.0

    def test_weight_accumulates_on_record(self):
        t = Trace()
        t.record(entry("a", lp=-1.0, lq=0.0))
        t.record(entry("b", lp=-0.5, role=OBSERVED))
        assert math.isclose(t.log_weight, -1.5)

    def test_rejection_is_absorbing(self):
        t = Trace()
        t.record(entry("a", lp=-math.inf, role=OBSERVED))
        t.record(entry("b", lp=-0.1, role=OBSERVED))
        assert t.log_weight == -math.inf
        assert t.rejected

    def test_nan_increment_raises(self):
        t = Trace()
        with pytest.raises(InvalidWeightError, match="invalid weight increment"):
            t.accumulate(math.nan)
        with pytest.raises(InvalidWeightError, match="invalid weight increment"):
            t.record(entry("a", lp=math.nan, role=OBSERVED))

    @given(st.lists(st.floats(-50, 50), max_size=30))
    def test_weight_is_order_independent(self, deltas):
        # fsum accumulation: any permutation of the same terms gives the
        # identical float
        fwd, rev = Trace(), Trace()
        for d in deltas:
            fwd.accumulate(d)
        for d in reversed(deltas):
            rev.accumulate(d)
        assert fwd.log_weight == rev.log_weight

    def test_zero_terms_do_not_perturb_weight(self):
        # eager mode records extra entries whose contribution is exactly
        # 0.0; the weight must match a trace without them bitwise
        base = Trace()
        base.accumulate(0.1)
        base.accumulate(-1.7)
        padded = Trace()
        padded.accumulate(0.1)
        for _ in range(5):
            padded.accumulate(0.0)
        padded.accumulate(-1.7)
        assert base.log_weight == padded.log_weight
        # the same through record: zero-contribution entries, including a
        # -0.0 likelihood, leave the bits of the weight alone
        recorded = Trace()
        recorded.record(entry("a", lp=0.1, role=OBSERVED))
        recorded.record(entry("a::noise", lp=0.0, lq=0.0, role=LATENT))
        recorded.record(entry("b", lp=-3.0, lq=-1.0, role=INTERVENED))
        recorded.record(entry("c", lp=-0.0, role=OBSERVED))
        recorded.record(entry("d", lp=-1.7, role=OBSERVED))
        assert recorded.log_weight.hex() == base.log_weight.hex()
        only_zero = Trace()
        only_zero.record(entry("c", lp=-0.0, role=OBSERVED))
        assert only_zero.log_weight.hex() == (0.0).hex()
