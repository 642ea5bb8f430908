"""Inert stand-in for the retired grain-memo tables."""

#: always empty, read only by simbench's ``engine.memo_hit_ratio``;
#: delete this module when the benchmark drops that metric
_TABLES = {}
