"""Reference implementations the tests compare the live code with."""
