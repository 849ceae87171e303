from hypothesis import settings

# Deterministic, bounded property runs: the same examples on every run, no
# per-example deadline (carrier scans vary in cost) and no example database.
settings.register_profile(
    "ordertop", deadline=None, derandomize=True, database=None, max_examples=100
)
settings.load_profile("ordertop")
