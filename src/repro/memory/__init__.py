"""Memory-system substrate: addresses, paging and main memory."""

from .address import (
    AddressLayout,
    block_base,
    block_number,
    block_offset,
    is_power_of_two,
    log2_exact,
    page_number,
    page_offset,
)
from .main_memory import Bus, MainMemory, MemoryRequest
from .paging import PageTable

__all__ = [
    "AddressLayout",
    "block_base",
    "block_number",
    "block_offset",
    "is_power_of_two",
    "log2_exact",
    "page_number",
    "page_offset",
    "PageTable",
    "MainMemory",
    "Bus",
    "MemoryRequest",
]
