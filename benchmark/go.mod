module entangle/benchmark

go 1.22

require entangle v0.0.0

replace entangle => ../
