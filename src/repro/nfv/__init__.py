"""NFV substrate: network functions and service chains."""

from repro.nfv.functions import (
    FUNCTION_CATALOGUE,
    FunctionType,
    NetworkFunction,
    all_function_types,
)
from repro.nfv.service_chain import ServiceChain, random_service_chain

__all__ = [
    "FunctionType",
    "NetworkFunction",
    "FUNCTION_CATALOGUE",
    "all_function_types",
    "ServiceChain",
    "random_service_chain",
]
