"""The JSON schema of ``difficulty_report``'s result, the ``report.json`` of
``skelstat report``; ``jsonschema`` reads it in tests only."""

REPORT_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "features", "ranking", "warnings"],
    "properties": {
        "config": {
            "type": "object",
            "required": ["T", "stride", "k", "N", "centering"],
            "properties": {
                "T": {"type": "integer", "minimum": 2},
                "stride": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
                "centering": {"type": "string"},
            },
        },
        "ranking": {"type": "array", "items": {"type": "string"}},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "features": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["counts", "warnings"],
                "properties": {
                    "counts": {
                        "type": "object",
                        "additionalProperties": {"type": "integer", "minimum": 0},
                    },
                    "warnings": {"type": "array", "items": {"type": "string"}},
                    "sdom": {
                        "type": "object",
                        "required": ["delta_n", "delta_a", "sdom", "feature_type", "counts"],
                        "properties": {
                            "delta_n": {"type": "number", "minimum": 0},
                            "delta_a": {"type": "number", "minimum": 0},
                            "sdom": {"type": "number"},
                            "feature_type": {"type": "string"},
                        },
                    },
                    "box_stats": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["lower_fence", "q1", "median", "q3", "upper_fence"],
                        },
                    },
                    "histograms": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "object",
                            "required": ["bin_edges", "counts", "split"],
                        },
                    },
                },
            },
        },
    },
}
