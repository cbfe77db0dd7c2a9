"""The deterministic projection and its yearly statement.

With every shock switched off the simulator reduces to a single projection:
expected arrivals, expected mortality, the flat expected return. Flows are
kept in integer euro cents, so the statement identities hold exactly:

    E = B + C - D        pension balance
    H = E + F - G        total balance
    I = A + H            closing fund value, next year's A

The bundled scenario opens on the fund's published 2006 statement; its
first row below reproduces the published figures to the thousand.
"""

from paygsim import default_config_path, load_config, run_deterministic_projection
from paygsim.cashflows import LEDGER_LETTERS, cents_to_thousands, identities_hold

cfg = load_config(default_config_path())
result = run_deterministic_projection(cfg)
ledger = result.ledger  # column name -> one int64 cent amount per year

print("thousands of euros")
print("year " + "".join(f"{letter:>11}" for letter in LEDGER_LETTERS))
for t, year in enumerate(result.years[:5]):
    cells = [int(cents_to_thousands(ledger[name][t])) for name in LEDGER_LETTERS.values()]
    print(f"{year} " + "".join(f"{c:11,}" for c in cells))

assert identities_hold(ledger)
print("\ncent-exact identities hold on every row")

# the age wave: contributions stop covering pensions in the early 2030s,
# after which investment income carries the fund
negative = [y for y, v in zip(result.years, ledger["pension_balance"]) if v < 0]
print(f"pension balance turns negative in {negative[0]}")
print(f"fund value {cfg.first_year}: "
      f"{cents_to_thousands(ledger['value_start'][0]) / 1e3:,.0f} million")
print(f"fund value {cfg.last_year}: "
      f"{cents_to_thousands(ledger['value_end'][-1]) / 1e3:,.0f} million")
print(f"actives {cfg.first_year}: {result.actives[0]:,.0f}, "
      f"{cfg.last_year}: {result.actives[-1]:,.0f}")
print(f"retired {cfg.first_year}: {result.retirees[0]:,.0f}, "
      f"{cfg.last_year}: {result.retirees[-1]:,.0f}")
