"""The suite's warning filters against third-party warnings that would end a run.

A failing ``@given`` test makes hypothesis write a patch under
``.hypothesis/patches``; where ``libcst`` is installed that imports it, and
the import warns.  Under a bare ``filterwarnings = error`` the warning
escapes a pytest hook and stops the whole session after that test.
"""

pytest_plugins = ("pytester",)


def test_a_failing_property_test_does_not_end_the_session(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(failed=1, passed=1)
