"""The XML-QL dialect: the system's query language (paper, section 2.1).

"XML-QL was the only existing expressive query language for XML when we
started designing our system" — queries here follow the WHERE / CONSTRUCT
shape of the W3C XML-QL note:

    WHERE  <bib><book year=$y>
             <title>$t</title>
             <author>$a</author>
           </book></bib> IN "books",
           $y > 1995
    CONSTRUCT <result><title>$t</title><author>$a</author></result>

A query is parsed (:mod:`parser`), semantically checked (:mod:`binder`)
and planned directly into the physical algebra by
:class:`repro.optimizer.planner.PlanBuilder`, with :mod:`translate`
converting patterns and templates — there is no intermediate logical
algebra, exactly as section 3.1 describes.
"""

from repro.query.ast import Query
from repro.query.binder import BoundQuery, bind_query
from repro.query.flwor import parse_flwor, translate_flwor
from repro.query.parser import parse_query
from repro.query.translate import SourceResolver

__all__ = [
    "BoundQuery",
    "Query",
    "SourceResolver",
    "bind_query",
    "parse_flwor",
    "parse_query",
    "translate_flwor",
]
