"""Package marker so relative conftest imports resolve under pytest."""
