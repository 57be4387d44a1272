"""Benchmark workload generation: genomes, reads, datasets, FASTA I/O,
streaming reference chunking."""

from repro.workloads.chunks import (
    Chunk,
    chunk_encoded_records,
    chunk_records,
    chunk_sequence,
    partition_chunks,
    shard_of,
)
from repro.workloads.genomes import GenomePair, random_genome, related_pair
from repro.workloads.mutate import MutationModel, mutate
from repro.workloads.reads import IlluminaProfile, ReadSet, read_pairs, simulate_reads
from repro.workloads.fasta import (
    FastaRecord,
    iter_fasta,
    read_fasta,
    read_fastq,
    write_fasta,
    write_fastq,
)
from repro.workloads.datasets import (
    TABLE1_PAIRS,
    TABLE1_SEQUENCES,
    table1_descriptions,
    table1_pair,
)

__all__ = [
    "Chunk",
    "chunk_encoded_records",
    "chunk_records",
    "chunk_sequence",
    "partition_chunks",
    "shard_of",
    "GenomePair",
    "random_genome",
    "related_pair",
    "MutationModel",
    "mutate",
    "IlluminaProfile",
    "ReadSet",
    "read_pairs",
    "simulate_reads",
    "FastaRecord",
    "iter_fasta",
    "read_fasta",
    "read_fastq",
    "write_fasta",
    "write_fastq",
    "TABLE1_PAIRS",
    "TABLE1_SEQUENCES",
    "table1_descriptions",
    "table1_pair",
]
