"""``roc_curve``, ``auc_roc`` and ``eer`` against the counting oracle in
``oracle.py``.

Scores are drawn on a coarse grid, so most sets hold ties: a tie group is
one threshold, and the trapezoidal AUC-ROC must equal the Mann-Whitney
statistic with half-weight ties. The program sums trapezoids with
``np.cumsum`` and the oracle counts pairs, so the two agree within an
absolute tolerance of 1e-12, not bit for bit. The EER is interpolated
between two distinct thresholds, which no direct count can reproduce:
it must lie between the counted rates on both sides of the crossing,
its threshold between the two thresholds there (within 1e-12: the
interpolation can round past an end), and counting at the returned
threshold may miss it by at most the FPR + FNR jump across that crossing
(``metrics.eer``'s docstring).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import counted_rates, eer_crossing, mann_whitney_auc
from skelstat.metrics import auc_roc, eer, roc_curve

TOL = 1e-12


@st.composite
def samples(draw):
    """(scores, positive) with both classes, on a grid of 1/4 or finer."""
    n = draw(st.integers(2, 40))
    grid = draw(st.sampled_from([1, 4, 1024]))
    scores = [k / grid for k in draw(st.lists(st.integers(-3 * grid, 3 * grid), min_size=n, max_size=n))]
    positive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positive[0], positive[1] = True, False
    return scores, positive


@settings(max_examples=150, derandomize=True, deadline=None)
@given(samples())
def test_auc_roc_is_mann_whitney(case):
    scores, positive = case
    assert abs(auc_roc(roc_curve(scores, positive)) - mann_whitney_auc(scores, positive)) <= TOL


@settings(max_examples=150, derandomize=True, deadline=None)
@given(samples())
def test_eer_within_the_counted_crossing(case):
    scores, positive = case
    rate, threshold = eer(roc_curve(scores, positive))
    (t_above, fpr_above, fnr_above), (t_at, fpr_at, fnr_at) = eer_crossing(scores, positive)
    assert t_at - TOL <= threshold <= t_above + TOL
    assert fpr_above - TOL <= rate <= fpr_at + TOL
    assert fnr_at - TOL <= rate <= fnr_above + TOL
    jump = (fpr_at - fpr_above) + (fnr_above - fnr_at)
    fpr, fnr = counted_rates(scores, positive, threshold)
    assert abs(fpr - rate) <= jump + TOL and abs(fnr - rate) <= jump + TOL
