// Golden trees under tests/lint_fixtures/ are skipped by repo scans.
std::mutex g_fixture_mu;
