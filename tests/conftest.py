"""Hypothesis profiles for the test suite.

``pytest --hypothesis-profile=exit-codes tests/test_cli.py -k exit_code_contract``
runs the CLI's exit-code contract fuzz test with a larger example budget
than the default profile's 100.
"""

from hypothesis import settings

settings.register_profile("exit-codes", max_examples=5000)
