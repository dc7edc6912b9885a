"""A steadiness-first benchmark of the repro compiler, VM and daemon."""
