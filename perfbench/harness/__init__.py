"""The benchmark harness: process driving, LSP client, statistics, workloads."""
