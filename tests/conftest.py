"""One hypothesis profile for the whole suite, whichever modules run: 60
examples per property and no deadline, since exact arithmetic on a large
draw can take well over the default 200 ms."""

from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")
