"""Graphviz DOT output shared by the net, causal-graph and
sequence-encoding-graph renderings."""


def quote(text: str) -> str:
    """``text`` as a DOT double-quoted string, ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
