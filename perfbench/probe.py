"""Host speed probe: a fixed pure-Python workload of about a quarter second.

``run.py`` runs it as its own child process between measurements and
reports times scaled by it, so that a shared host running faster or slower
for a while does not read as a change of arcperp.  It does the kind of work
arcperp does (Fraction arithmetic, dicts keyed by tuples, sorting) and
imports nothing from the repository.  Changing it changes the scale of
every reported time, so it stays as it is.
"""

from fractions import Fraction

acc: dict = {}
for i in range(60000):
    key = (i % 61, (i * 7) % 53)
    acc[key] = acc.get(key, 0) + Fraction(i % 11 - 5, 1 + i % 7)
total = sum(v for _, v in sorted(acc.items()))
