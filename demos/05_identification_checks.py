"""When is bracketing identifiable at all? Numerical answers.

If the money metric is additive, a subject choosing from two menus
separately is indistinguishable from one choosing from their combined
sum menu, so no experiment can tell narrow from broad. Convex effort
costs break additivity, and a two-option menu pair then separates the
presentations.

Run: python3 demos/05_identification_checks.py
"""
from bracketlab import (
    Bundle,
    QuasiLinearPowerCost,
    additivity_residual,
    epsilon_menu_pair,
    money_metric,
    trace_pair,
    unidentifiability_probe,
    verify_rows,
)
from bracketlab.reports import render_verify_text

linear = QuasiLinearPowerCost(alpha=0.004, gamma=1.0)
convex = QuasiLinearPowerCost(alpha=0.004, gamma=2.0)
grid = [Bundle(t, 0.0) for t in (0, 5, 10, 15)]
print("worst |M(a+b) - M(a) - M(b)| over a small task grid")
print(f"  linear cost: {additivity_residual(linear, grid):.2e}")
print(f"  convex cost: {additivity_residual(convex, grid):.4f}")

# Build the two menus that expose the convex-cost agent.
chore = Bundle(15, 0.0)
gap = money_metric(convex, chore + chore) - 2 * money_metric(convex, chore)
pair = epsilon_menu_pair(convex, chore, chore, epsilon=0.5)
def show(bundle):
    return f"({bundle.tasks} tasks, ${bundle.money:.2f})"


print(f"\nsubadditive pair, gap {gap:.2f}: menus {{(0,0), sweetened chore}}")
trace = trace_pair(convex, pair)
total = trace.f_sep + trace.s_sep
print(f"  chosen separately: {show(trace.f_sep)} twice -> total {show(total)}")
print(f"  chosen from the sum menu: {show(trace.o_agg)}")
report = unidentifiability_probe(convex, [pair])
print(f"  probe flags {len(report)} equality violation(s): presentations separate")

print("\nsame probe on the linear-cost agent:")
probe = unidentifiability_probe(linear, [pair])
print(f"  {len(probe)} violation(s): the framing cannot matter\n")

print(render_verify_text(verify_rows("all")), end="")
