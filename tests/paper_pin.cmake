# Pins the rendered paper: runs bench_paper on a 300-site corpus at 1 and 4
# threads and requires its stdout below the 4-line header (the header names
# the thread count) to equal tests/golden/paper_300.txt byte for byte.
#
#   cmake -DBENCH_PAPER=<bench_paper> -DGOLDEN=<paper_300.txt> \
#         -DWORK_DIR=<dir> -P tests/paper_pin.cmake
#
# A failing run leaves its output in WORK_DIR/paper_300_t<threads>.txt and
# prints a diff against the pin. Regenerating the pin is a test-data change
# (say what moved and why in CHANGES.md):
#
#   CG_SITES=300 build/bench/bench_paper --threads 1 | tail -n +5 \
#     > tests/golden/paper_300.txt
cmake_minimum_required(VERSION 3.16)

set(ENV{CG_SITES} 300)
unset(ENV{CG_ARCHIVE})
file(READ "${GOLDEN}" golden)
set(line "[^\n]*\n")
foreach(threads 1 4)
  execute_process(COMMAND "${BENCH_PAPER}" --threads ${threads}
                  OUTPUT_VARIABLE out RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_paper --threads ${threads} exited ${status}")
  endif()
  string(REGEX MATCH "^${line}${line}${line}${line}" header "${out}")
  string(LENGTH "${header}" header_length)
  string(SUBSTRING "${out}" ${header_length} -1 body)
  if(NOT body STREQUAL golden)
    set(actual "${WORK_DIR}/paper_300_t${threads}.txt")
    file(WRITE "${actual}" "${body}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
    message(FATAL_ERROR
            "bench_paper --threads ${threads} differs from ${GOLDEN}")
  endif()
endforeach()
