"""The µPC histogram monitor: board, Unibus interface, sessions.

Import names from the modules themselves: the package re-exports
nothing, so importing it loads no module a run does not use.
"""
