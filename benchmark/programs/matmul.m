function C = matmul(A, B)
  % Dense matrix product: the only path to the blocked Dgemm kernel
  % (no Table 1 program multiplies two matrices above the 32^3 cutoff).
  C = A*B;
end
