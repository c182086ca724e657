# Exercises the CLI failure paths hardened by the durable-data-dir and
# config-parse audits: missing/empty/invalid directories and malformed
# configs must exit nonzero with a message naming the problem — no
# abort, no silent success, no side effects (a missing --dir must not
# be created as an empty data directory).
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_expect expected_rc out_var)
    execute_process(COMMAND ${ARGN}
                    WORKING_DIRECTORY ${WORK_DIR}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expected_rc})
        message(FATAL_ERROR
            "${ARGN} exited ${rc}, expected ${expected_rc}: ${out}${err}")
    endif()
    set(${out_var} "${out}${err}" PARENT_SCOPE)
endfunction()

# --- sleuth wal: data-directory validation. ---

# A missing directory is an error and must NOT be created on the side.
run_expect(1 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/no-such-dir --verify)
if(NOT out MATCHES "does not exist")
    message(FATAL_ERROR "missing-dir error absent: ${out}")
endif()
if(EXISTS ${WORK_DIR}/no-such-dir)
    message(FATAL_ERROR "wal --verify created the missing data dir")
endif()

# A regular file where the directory should be.
file(WRITE ${WORK_DIR}/a-file "not a directory")
run_expect(1 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/a-file)
if(NOT out MATCHES "not a directory")
    message(FATAL_ERROR "file-as-dir error absent: ${out}")
endif()

# No --dir at all.
run_expect(1 out ${SLEUTH_BIN} wal)
if(NOT out MATCHES "requires --dir")
    message(FATAL_ERROR "missing --dir error absent: ${out}")
endif()

# An existing empty directory is a valid (trivial) store, not an error.
file(MAKE_DIRECTORY ${WORK_DIR}/empty-store)
run_expect(0 out ${SLEUTH_BIN} wal --dir ${WORK_DIR}/empty-store --verify)
if(NOT out MATCHES "empty data directory")
    message(FATAL_ERROR "empty-store summary absent: ${out}")
endif()

# --- sleuth infer: input validation. ---

run_expect(1 out ${SLEUTH_BIN} infer --traces ${WORK_DIR}/missing.json
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "cannot read")
    message(FATAL_ERROR "missing-traces error absent: ${out}")
endif()

run_expect(1 out ${SLEUTH_BIN} infer --store ${WORK_DIR}/no-such-dir
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "does not exist")
    message(FATAL_ERROR "missing-store error absent: ${out}")
endif()

run_expect(1 out ${SLEUTH_BIN} infer --store ${WORK_DIR}/empty-store
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "no recoverable state")
    message(FATAL_ERROR "empty-store infer error absent: ${out}")
endif()

# --- JSON nesting: input nested past util::Json::kMaxDepth is a
# recoverable parse error naming the limit, not a stack overflow. ---

string(REPEAT "[" 200000 deep_arrays)
file(WRITE ${WORK_DIR}/deep-arrays.json "${deep_arrays}")
run_expect(1 out ${SLEUTH_BIN} ingest --traces ${WORK_DIR}/deep-arrays.json)
if(NOT out MATCHES "nesting deeper than 256 levels")
    message(FATAL_ERROR "ingest depth-limit error absent: ${out}")
endif()

string(REPEAT "{\"a\":" 50000 deep_objects)
file(WRITE ${WORK_DIR}/deep-objects.json "${deep_objects}")
run_expect(1 out ${SLEUTH_BIN} infer --traces ${WORK_DIR}/deep-objects.json
           --out ${WORK_DIR}/m.json)
if(NOT out MATCHES "nesting deeper than 256 levels")
    message(FATAL_ERROR "infer depth-limit error absent: ${out}")
endif()

# --- Config parsing: a malformed enum is a recoverable per-field
# error naming the offending path, not an opaque abort. ---

run_expect(0 out ${SLEUTH_BIN} generate --rpcs 12 --seed 3 --out ${WORK_DIR}/app)
file(READ ${WORK_DIR}/app/config.json config)
string(REGEX REPLACE "\"tier\": \"frontend\"" "\"tier\": \"edge\""
       config "${config}")
file(WRITE ${WORK_DIR}/bad-tier.json "${config}")
run_expect(1 out ${SLEUTH_BIN} simulate --config ${WORK_DIR}/bad-tier.json
           --count 5 --out ${WORK_DIR}/t.json)
if(NOT out MATCHES "tier: unknown tier 'edge'")
    message(FATAL_ERROR "bad-tier error did not name the field: ${out}")
endif()

# --- sleuth_serviced --data-dir: an uncreatable path fails up front,
# before the expensive warmup/training phases. ---

run_expect(1 out ${SERVICED_BIN} --data-dir /dev/null/sub)
if(NOT out MATCHES "cannot create data directory")
    message(FATAL_ERROR "serviced data-dir error absent: ${out}")
endif()
