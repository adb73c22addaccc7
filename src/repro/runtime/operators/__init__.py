"""Runtime operators: grouping, PP-k joins, pushed-SQL execution."""

from .group import GroupStats, clustered_groups, sorted_groups
from .ppk import ppk_extend
from .pushedsql import execute_pushed, template_fn

__all__ = [
    "GroupStats",
    "clustered_groups",
    "sorted_groups",
    "ppk_extend",
    "execute_pushed",
    "template_fn",
]
